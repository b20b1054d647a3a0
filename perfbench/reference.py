"""Independent reference for the quantities the benchmark checks.

It takes a different route from the package on purpose:

* noise slices ``exp(-i Delta_n / N)`` and each ZYZ Euler factor come from
  ``scipy.linalg.expm`` (the package diagonalizes the generators and writes
  the SU(2) entries in closed form);
* the two qubit factors are joined with ``np.kron`` and the sequence is a
  plain per-segment product (the package uses einsum stacks and
  prefix/suffix products);
* the local invariants use the determinant-divided form
  ``G1 = tr(m)^2 / (16 det U)``, ``g3 = (tr(m)^2 - tr(m^2)) / (4 det U)``
  with ``m = U_B^T U_B`` (the package normalizes U to SU(4) first);
* the perfect-entangler test is the convex-hull criterion: U is a perfect
  entangler iff the eigenvalues of ``m`` on the unit circle leave no angular
  gap wider than pi, i.e. their convex hull contains 0 (the package uses the
  Weyl-chamber polyhedron and a cubic-root side selector).

Only the noise coefficients are taken from the package's sampler; the
benchmark checks their variance separately.
"""

import numpy as np
from scipy.linalg import expm

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# Bell ("magic") basis; any basis in which local gates are real orthogonal works
MAGIC = np.array(
    [[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]], dtype=complex
) / np.sqrt(2)


def derived_seed(root_seed, *key):
    """The 64-bit seed of a key path under a root seed (NumPy SeedSequence)."""
    ss = np.random.SeedSequence(entropy=int(root_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def zyz(gamma, beta, alpha):
    """``exp(+i g/2 Z) exp(+i b/2 Y) exp(+i a/2 Z)`` as three matrix exponentials."""
    Y, Z = PAULI[2], PAULI[3]
    return expm(0.5j * gamma * Z) @ expm(0.5j * beta * Y) @ expm(0.5j * alpha * Z)


def local_gate(six):
    g1, b1, a1, g2, b2, a2 = six
    return np.kron(zyz(g1, b1, a1), zyz(g2, b2, a2))


def entangling_slice(N):
    return np.diag([1, 1, 1, np.exp(2j * np.pi / N)])


def sequence_gate(angles, N, delta=None, channels=None, delta_eta=None):
    """``prod_n Z_N D_n R_n`` with segment 0 acting first.

    ``delta`` (N, n_channels) gives ``D_n = expm(-i sum_c delta[n, c] P_c / N)``;
    ``delta_eta`` (N, 6) multiplies the Euler angles by ``1 + delta_eta``.
    Without them this is the noise-free gate.
    """
    x = np.asarray(angles, dtype=float).reshape(N, 6)
    if delta_eta is not None:
        x = x * (1.0 + np.asarray(delta_eta))
    Z = entangling_slice(N)
    U = np.eye(4, dtype=complex)
    for n in range(N):
        seg = Z
        if delta is not None:
            H = sum(d * np.kron(PAULI[i], PAULI[j]) for d, (i, j) in zip(delta[n], channels))
            seg = seg @ expm(-1j * H / N)
        U = seg @ local_gate(x[n]) @ U
    return U


def gate_error(U, O):
    return 1.0 - abs(np.trace(O.conj().T @ U)) ** 2 / 16.0


def magic_gram(U):
    UB = MAGIC.conj().T @ U @ MAGIC
    return UB.T @ UB


def invariants(U):
    """(Re G1, Im G1, g3) in the determinant-divided form."""
    m = magic_gram(U)
    det = np.linalg.det(U)
    tr = np.trace(m)
    G1 = tr * tr / (16.0 * det)
    g3 = (tr * tr - np.trace(m @ m)) / (4.0 * det)
    return G1.real, G1.imag, g3.real


def hull_margin(U):
    """pi minus the widest angular gap between the eigenvalues of U_B^T U_B.

    Non-negative iff the convex hull of the eigenvalues contains 0, i.e. iff
    U is a perfect entangler.
    """
    phases = np.sort(np.angle(np.linalg.eigvals(magic_gram(U))))
    gaps = np.diff(np.concatenate([phases, phases[:1] + 2.0 * np.pi]))
    return float(np.pi - gaps.max())


def pe_distance(U):
    """|d| outside the perfect-entangler polyhedron, 0 inside (hull test)."""
    if hull_margin(U) >= 0.0:
        return 0.0
    g1, g2, g3 = invariants(U)
    return abs(g3 * np.hypot(g1, g2) - g1)


def ensemble_terms(angles, N, ensemble):
    """Per-realization (eps, D) of the sequence over a list of realizations;
    the comparison target uses the unperturbed angles."""
    O = sequence_gate(angles, N)
    eps, D = [], []
    for r in ensemble:
        U = sequence_gate(angles, N, r.delta, r.channels, r.delta_eta)
        eps.append(gate_error(U, O))
        D.append(pe_distance(U))
    return np.array(eps), np.array(D)


def variance_tolerance(n):
    """Allowed deviation of mean(x^2) / sigma^2 from 1 for n independent
    zero-mean samples.

    A Gaussian, or a sum of independent +-1 telegraph values with unit total
    squared weight, has Var(x^2) <= 2 sigma^4, so the mean of n squares lies
    more than five standard errors, 5 sqrt(2/n), from sigma^2 with negligible
    probability.
    """
    return 5.0 * np.sqrt(2.0 / n)
