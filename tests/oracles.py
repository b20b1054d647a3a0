"""Test-only code: independent reference computations, random generators and
spectral instruments.

The reference computations deliberately take different computational routes
than the package: invariants via the determinant-divided trace formulas (no
fourth-root normalization), canonical gates via scipy's general expm (not the
magic-basis diagonal form), and closed-form invariants from chamber
coordinates.  The perfect-entangler fidelity is checked against the
three-face formula on the folded Weyl coordinates.  Expected values frozen
into the tests were produced by these functions.

The Haar-random generators draw test gates, ``sample_noise_trace`` with
``fit_spectral_exponent`` measure the spectrum of the package's 1/f noise,
``estimate_local_fidelity`` is the Monte-Carlo harness of criterion 6, and
``any_value`` draws arbitrary field values for the config validation
properties.
"""

import numpy as np
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.signal import welch

from entseq.gate_algebra import local_rotation, trace_fidelity
from entseq.noise_model import telegraph_bank

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# same Bell-basis column convention as the package, written out longhand
MAGIC = np.array(
    [
        [1, -1j, 0, 0],
        [0, 0, 1, -1j],
        [0, 0, -1, -1j],
        [1, 1j, 0, 0],
    ],
    dtype=complex,
) / np.sqrt(2)


def invariants_det_form(U):
    """g via the magic-basis Gram matrix with explicit determinant division."""
    UB = MAGIC.conj().T @ U @ MAGIC
    det = np.linalg.det(UB)
    m = UB.T @ UB
    tr2 = np.trace(m) ** 2
    g12 = tr2 / (16.0 * det)
    g3 = (tr2 - np.trace(m @ m)) / (4.0 * det)
    return g12.real, g12.imag, g3.real


def invariants_from_weyl(c1, c2, c3):
    """Closed-form (g1, |g2|, g3) from chamber coordinates in radians."""
    g1 = (np.cos(c1) * np.cos(c2) * np.cos(c3)) ** 2 - (
        np.sin(c1) * np.sin(c2) * np.sin(c3)
    ) ** 2
    g2 = 0.25 * np.sin(2 * c1) * np.sin(2 * c2) * np.sin(2 * c3)
    g3 = 4 * g1 - np.cos(2 * c1) * np.cos(2 * c2) * np.cos(2 * c3)
    return g1, abs(g2), g3


def canonical_gate_expm(c1, c2, c3):
    """A(c) assembled with scipy's general-purpose matrix exponential."""
    H = c1 * np.kron(SX, SX) + c2 * np.kron(SY, SY) + c3 * np.kron(SZ, SZ)
    return expm(-0.5j * H)


def zyz_expm(gamma, beta, alpha):
    """Single-qubit ``exp(+i g/2 Z) exp(+i b/2 Y) exp(+i a/2 Z)``, one expm each."""
    return expm(0.5j * gamma * SZ) @ expm(0.5j * beta * SY) @ expm(0.5j * alpha * SZ)


def sequence_gate_expm(angles, delta, channels, delta_eta):
    """Noisy sequence gate as a plain per-segment product
    ``Z_N exp(-i Delta_n / N) (u1 (x) u2)``, segment 1 acting first."""
    paulis = (np.eye(2), SX, SY, SZ)
    N = len(delta)
    Z = np.diag([1, 1, 1, np.exp(2j * np.pi / N)])
    x = np.reshape(angles, (N, 6)) * (1.0 + np.asarray(delta_eta))
    U = np.eye(4, dtype=complex)
    for n in range(N):
        H = sum(d * np.kron(paulis[i], paulis[j]) for d, (i, j) in zip(delta[n], channels))
        R = np.kron(zyz_expm(*x[n, :3]), zyz_expm(*x[n, 3:]))
        U = Z @ expm(-1j * H / N) @ R @ U
    return U


def in_pe_polyhedron(c1, c2, c3):
    """Perfect-entangler membership from the polyhedron inequalities."""
    half_pi = 0.5 * np.pi
    return (c1 + c2 >= half_pi) and (c1 - c2 <= half_pi) and (c2 + c3 <= half_pi)


def pe_fidelity_three_faces(c):
    """F_PE from folded Weyl coordinates ``(..., 3)``: ``cos^2(e / 4)`` with
    ``e`` the excess over the first polyhedron face the point lies beyond."""
    c1, c2, c3 = np.moveaxis(np.asarray(c), -1, 0)
    half_pi = 0.5 * np.pi
    b1 = c1 + c2 <= half_pi
    b2 = c2 + c3 >= half_pi
    b3 = c1 - c2 >= half_pi
    out = np.ones(c1.shape)
    out = np.where(b1, np.cos((c1 + c2 - half_pi) / 4.0) ** 2, out)
    out = np.where(b2 & ~b1, np.cos((c2 + c3 - half_pi) / 4.0) ** 2, out)
    return np.where(b3 & ~b1 & ~b2, np.cos((c1 - c2 - half_pi) / 4.0) ** 2, out)


CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
SQRT_SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
        [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def random_unitary(dim, rng):
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_su2(rng):
    u = random_unitary(2, rng)
    return u / np.linalg.det(u) ** 0.5


def random_local(rng):
    """Haar-random element of SU(2) (x) SU(2)."""
    return np.kron(random_su2(rng), random_su2(rng))


def sample_noise_trace(config, duration, sample_rate, rng):
    """One summed, weighted fluctuator bank on a uniform time grid."""
    t = np.arange(0.0, duration, 1.0 / sample_rate)
    return t, config.sigma_nonlocal * telegraph_bank(config, t, rng)


def fit_spectral_exponent(x, sample_rate, band, nperseg=32768, n_bins=24):
    """Spectral exponent alpha_hat (S ~ 1/f^alpha_hat) of a sampled trace.

    Welch periodogram, averaged within log-spaced frequency bins over
    ``band = (f_lo, f_hi)``, then a log-log least-squares fit.  Log binning
    keeps the fit from being dominated by the dense high-frequency points of
    the linear Welch grid.
    """
    f, P = welch(x, fs=sample_rate, nperseg=min(nperseg, len(x)))
    edges = np.geomspace(band[0], band[1], n_bins + 1)
    fc, pc = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (f >= lo) & (f < hi)
        if sel.any():
            fc.append(np.exp(np.log(f[sel]).mean()))
            pc.append(P[sel].mean())
    slope = np.polyfit(np.log(fc), np.log(pc), 1)[0]
    return -slope


def estimate_local_fidelity(sigma_local, n_coeff_sets, n_angle_sets, rng,
                            angle_range=4.0 * np.pi):
    """Monte-Carlo mean of the local-rotation fidelity
    ``|tr(R(eta')^dag R(eta))|^2 / 16`` under multiplicative angle noise.

    Angle sets are uniform in ``[-angle_range, angle_range]``; each of the six
    angles gets an independent Gaussian coefficient per coefficient set.
    """
    if n_coeff_sets < 1 or n_angle_sets < 1:
        raise ValueError("sample counts must be >= 1")
    total = 0.0
    for _ in range(n_angle_sets):
        ang = rng.uniform(-angle_range, angle_range, 6)
        R = local_rotation(ang)
        deltas = rng.normal(0.0, sigma_local, (n_coeff_sets, 6))
        Rp = local_rotation(ang[None, :] * (1.0 + deltas))
        total += trace_fidelity(Rp, R).mean()
    return total / n_angle_sets


# any JSON-like value, nested: numbers of every kind, strings, None, lists
any_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner),
    max_leaves=6,
)
