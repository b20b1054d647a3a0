"""Dense 4x4 unitary arithmetic for two-qubit gates.

Conventions used throughout the package:

* two-qubit operators are numpy ``complex128`` arrays of shape ``(4, 4)``
  in the computational basis ``|00>, |01>, |10>, |11>``; batched helpers
  accept arbitrary leading axes ``(..., 4, 4)``,
* a Pauli channel is an index pair ``(i, j)`` with ``i, j in 0..3``
  (0 = identity, 1..3 = X, Y, Z) labelling ``sigma_i (x) sigma_j``,
* a local rotation is parametrized by six Euler angles
  ``(gamma1, beta1, alpha1, gamma2, beta2, alpha2)`` where each qubit factor
  is ``exp(+i*gamma/2 Z) exp(+i*beta/2 Y) exp(+i*alpha/2 Z)``.  Note the
  *positive* sign in the exponents; most texts use the opposite convention.
"""

import numpy as np

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, SIGMA_X, SIGMA_Y, SIGMA_Z)

UNITARY_TOL = 1e-12


def pauli_product(pair):
    """Kronecker product ``sigma_i (x) sigma_j`` for a channel index pair."""
    i, j = pair
    if not (0 <= i <= 3 and 0 <= j <= 3):
        raise ValueError(f"Pauli indices must be in 0..3, got {pair!r}")
    return np.kron(PAULIS[i], PAULIS[j])


def pauli_stack(channels):
    """Stack of ``sigma_i (x) sigma_j`` matrices, shape ``(len(channels), 4, 4)``."""
    return np.stack([pauli_product(p) for p in channels])


def is_unitary(U, tol=UNITARY_TOL):
    U = np.asarray(U)
    eye = np.eye(U.shape[-1])
    dev = np.swapaxes(U.conj(), -1, -2) @ U - eye
    return np.sqrt((np.abs(dev) ** 2).sum(axis=(-2, -1))) <= tol


def expm_hermitian(H, scale=1.0):
    """``exp(-1j * scale * H)`` for Hermitian ``H`` via eigendecomposition.

    Batched over leading axes.  Spectral method: generators here are always
    Hermitian, so this is exact to rounding with no squaring or branch cuts.
    """
    H = np.asarray(H, dtype=complex)
    herm_dev = np.abs(H - np.swapaxes(H.conj(), -1, -2)).max()
    if herm_dev > 1e-12:
        raise ValueError(f"generator is not Hermitian (deviation {herm_dev:.3e})")
    w, v = np.linalg.eigh(H)
    phase = np.exp(-1j * scale * w)
    return np.einsum("...ik,...k,...jk->...ij", v, phase, v.conj())


def _su2_zyz(gamma, beta, alpha):
    """Single-qubit ``exp(+i g/2 Z) exp(+i b/2 Y) exp(+i a/2 Z)``, batched."""
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


def local_rotation(angles):
    """Tensor product of two ZYZ Euler rotations, one per qubit.

    ``angles`` has shape ``(..., 6)`` ordered
    ``(gamma1, beta1, alpha1, gamma2, beta2, alpha2)``; returns ``(..., 4, 4)``.
    The result is in SU(2) (x) SU(2).
    """
    angles = np.asarray(angles, dtype=float)
    if angles.shape[-1] != 6:
        raise ValueError(f"expected 6 Euler angles per rotation, got shape {angles.shape}")
    u1 = _su2_zyz(angles[..., 0], angles[..., 1], angles[..., 2])
    u2 = _su2_zyz(angles[..., 3], angles[..., 4], angles[..., 5])
    out = np.einsum("...ij,...kl->...ikjl", u1, u2)
    return out.reshape(out.shape[:-4] + (4, 4))


def trace_fidelity(U, O):
    """``|tr(O^dag U)|^2 / 16``; global-phase invariant, in [0, 1].  Batched."""
    tr = np.einsum("...ji,...ji->...", np.asarray(O).conj(), np.asarray(U))
    return (tr.real ** 2 + tr.imag ** 2) / 16.0
