"""Test-only code: independent reference computations, random generators and
spectral instruments.

The reference computations deliberately take different computational routes
than the package: invariants via the determinant-divided trace formulas (no
fourth-root normalization), canonical gates via scipy's general expm (not the
magic-basis diagonal form), and closed-form invariants from chamber
coordinates.  The perfect-entangler fidelity is checked against the
three-face formula on the folded Weyl coordinates.  Expected values frozen
into the tests were produced by these functions.

``chain_angle_gradient`` is the reference for the reverse pass: the
partial traces of ``local_rotation_grad`` over stored prefix and suffix
products, in complex arithmetic on the rotations of ``kron_rotation`` (the
closed-form ZYZ factors, independent of the package's real-form kernel).
The Haar-random generators draw test gates, ``telegraph_bank`` is the
reference for the package's 1/f arithmetic, ``sample_noise_trace`` with
``fit_spectral_exponent`` measure the spectrum of its traces,
``make_ensemble_member_by_member`` is the frozen per-member noise sampler,
``estimate_local_fidelity`` is the Monte-Carlo harness of criterion 6, and
``any_value`` draws arbitrary field values for the config validation
properties.
"""

import numpy as np
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.signal import welch

from entseq.gate_algebra import trace_fidelity
from entseq.noise_model import QUASISTATIC, fluctuator_rates, fluctuator_weights

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


def _su2_zyz(gamma, beta, alpha):
    """Single-qubit ``exp(+i g/2 Z) exp(+i b/2 Y) exp(+i a/2 Z)``, batched, in
    complex closed form."""
    g = np.exp(0.5j * np.asarray(gamma))
    a = np.exp(0.5j * np.asarray(alpha))
    cb = np.cos(0.5 * np.asarray(beta))
    sb = np.sin(0.5 * np.asarray(beta))
    u = np.empty(np.broadcast(g, a, cb).shape + (2, 2), dtype=complex)
    u[..., 0, 0] = g * cb * a
    u[..., 0, 1] = g * sb / a
    u[..., 1, 0] = -sb * a / g
    u[..., 1, 1] = cb / (g * a)
    return u


def kron_rotation(angles):
    """The complex local rotation ``u1 (x) u2`` ``(..., 4, 4)`` of the six
    Euler angles ``(..., 6)``, one closed-form ZYZ factor per qubit."""
    angles = np.asarray(angles, dtype=float)
    u1 = _su2_zyz(angles[..., 0], angles[..., 1], angles[..., 2])
    u2 = _su2_zyz(angles[..., 3], angles[..., 4], angles[..., 5])
    out = np.einsum("...ij,...kl->...ikjl", u1, u2)
    return out.reshape(out.shape[:-4] + (4, 4))


def _su2_zyz_grad(gamma, beta, alpha):
    """The Euler factor ``u`` and its derivatives by (gamma, beta, alpha),
    shape ``(..., 3, 2, 2)``: ``(i/2) Z u``, ``u(beta + pi) / 2`` and
    ``u (i/2) Z``."""
    u = _su2_zyz(gamma, beta, alpha)
    half_iz = np.array([0.5j, -0.5j])
    du = np.empty(u.shape[:-2] + (3, 2, 2), dtype=complex)
    du[..., 0, :, :] = half_iz[:, None] * u
    du[..., 1, :, :] = 0.5 * _su2_zyz(gamma, np.asarray(beta) + np.pi, alpha)
    du[..., 2, :, :] = u * half_iz
    return u, du


def local_rotation_grad(angles, W):
    """Gradient of ``Re tr(W R)``, ``R = kron_rotation(angles)``, by the six
    angles: shape ``(..., 6)`` for ``angles`` ``(..., 6)`` and ``W``
    ``(..., 4, 4)``.

    ``R = u1 (x) u2``, so the derivative by an angle of u1 is
    ``tr(X1 du1)`` with ``X1`` the partial trace of ``W (1 (x) u2)`` over
    the second qubit, and likewise for u2.
    """
    angles = np.asarray(angles, dtype=float)
    u1, du1 = _su2_zyz_grad(angles[..., 0], angles[..., 1], angles[..., 2])
    u2, du2 = _su2_zyz_grad(angles[..., 3], angles[..., 4], angles[..., 5])
    W = np.reshape(W, np.shape(W)[:-2] + (2, 2, 2, 2))   # W[(i1 i2), (j1 j2)]
    X1 = np.einsum("...abcd,...db->...ac", W, u2)
    X2 = np.einsum("...abcd,...ca->...bd", W, u1)
    g1 = np.einsum("...ac,...sca->...s", X1, du1)
    g2 = np.einsum("...bd,...sdb->...s", X2, du2)
    return np.concatenate([g1, g2], axis=-1).real


def chain_angle_gradient(angles, factors, delta_eta, G):
    """Gradient by the 6N angles of ``sum_m Re tr(G[m] W_m)`` over the chains
    ``W_m = T_m(N-1) ... T_m0``, ``T_mk = F_mk R(x_k (1 + delta_eta_mk))``,
    of a layout ``(factors, delta_eta)`` ``(K, N, 4, 4)``, ``(K, N, 6)``.

    The partial-trace route: stored prefix and suffix products of each
    member, and :func:`local_rotation_grad` of ``S_k G P_k F_k`` at the
    perturbed angles, times ``1 + delta_eta``, summed over members.
    """
    N = factors.shape[1]
    p = np.reshape(angles, (1, N, 6)) * (1.0 + np.asarray(delta_eta))
    T = factors @ kron_rotation(p)
    eye = np.broadcast_to(np.eye(4), G.shape)
    prefix, suffix = [eye] * N, [eye] * N
    for k in range(N - 2, -1, -1):
        prefix[k] = prefix[k + 1] @ T[:, k + 1]
    for k in range(1, N):
        suffix[k] = T[:, k - 1] @ suffix[k - 1]
    W = np.stack([suffix[k] @ G @ prefix[k] @ factors[:, k] for k in range(N)], axis=1)
    return (local_rotation_grad(p, W) * (1.0 + delta_eta)).sum(axis=0).ravel()


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


def telegraph_bank(config, times, rng):
    """The weighted fluctuator bank of ``config`` read at ``times``, shape
    ``(..., n)`` and sorted along the last axis; independent banks along the
    leading axes.  Returns ``fluctuator_weights(config) @ states``, shape
    ``(..., n)``, where ``states`` holds each fluctuator's +-1 values.

    Draw order: the initial states, one uniform per bank and fluctuator (+1
    below 0.5), then the flips, one uniform per gap, bank and fluctuator,
    time-major.  A fluctuator flips across a gap ``dt`` where its uniform is
    below ``(1 - exp(-4 nu dt)) / 2``; the states are the running XOR of the
    flips.
    """
    rates = fluctuator_rates(config)
    weights = fluctuator_weights(config)
    t = np.moveaxis(np.asarray(times, dtype=float), -1, 0)
    up = rng.random(t.shape[1:] + rates.shape) < 0.5
    gaps = np.diff(t, axis=0)[..., None]
    flips = rng.random(gaps.shape[:-1] + rates.shape) < -0.5 * np.expm1(-4.0 * rates * gaps)
    flips[:1] ^= up
    # the first read in a product of its own, as make_ensemble computes it:
    # BLAS may round a row differently by its place in a product
    out = np.empty(t.shape)
    out[0] = np.where(up, 1.0, -1.0) @ weights
    out[1:] = np.where(np.logical_xor.accumulate(flips, axis=0), 1.0, -1.0) @ weights
    return np.moveaxis(out, 0, -1)


def sample_noise_trace(config, duration, sample_rate, rng):
    """One summed, weighted fluctuator bank on a uniform time grid."""
    t = np.arange(0.0, duration, 1.0 / sample_rate)
    return t, config.sigma_nonlocal * telegraph_bank(config, t, rng)


def make_ensemble_member_by_member(config, N, M, seed=None):
    """``(delta, delta_eta)`` of each member of ``noise_model.make_ensemble``,
    drawn one member at a time with ``Generator.normal``,
    ``Generator.uniform`` and :func:`telegraph_bank`.

    This is the sampler as it was before its arithmetic was batched, frozen:
    the package's members must match it byte for byte.  A member's 1/f banks
    are read once per segment.
    """
    seed = config.seed if seed is None else seed
    C = len(config.channels)
    lo = np.arange(N) / N
    hi = lo + 1 / N
    members = []
    for m in range(M):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(m,)))
        if config.kind == QUASISTATIC:
            delta = np.tile(rng.normal(0.0, config.sigma_nonlocal, C), (N, 1))
            delta_eta = rng.normal(0.0, config.sigma_local, (N, 6))
        else:
            banks = telegraph_bank(config, rng.uniform(lo, hi, (C + 6, N)), rng).T
            delta = config.sigma_nonlocal * banks[:, :C]
            delta_eta = config.sigma_local * banks[:, C:]
        members.append((delta, delta_eta))
    return members


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
        R = kron_rotation(ang)
        deltas = rng.normal(0.0, sigma_local, (n_coeff_sets, 6))
        Rp = kron_rotation(ang[None, :] * (1.0 + deltas))
        total += trace_fidelity(Rp, R).mean()
    return total / n_angle_sets


# any JSON-like value, nested: numbers of every kind, strings, None, lists
any_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner),
    max_leaves=6,
)
