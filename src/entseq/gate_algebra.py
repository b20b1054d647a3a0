"""Dense 4x4 unitary arithmetic for two-qubit gates.

Conventions used throughout the package:

* two-qubit operators are numpy ``complex128`` arrays of shape ``(4, 4)``
  in the computational basis ``|00>, |01>, |10>, |11>``; batched helpers
  accept arbitrary leading axes ``(..., 4, 4)``.  The sequence kernel carries
  them in the real form of :func:`embed`, ``float64`` ``(..., 8, 8)``, the
  form :func:`local_rotation` returns,
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


def embed(A):
    """The real form of complex matrices ``(..., n, n)``: the ``(..., 2n, 2n)``
    blocks ``[[Re A, -Im A], [Im A, Re A]]``.  It is a ring homomorphism,
    ``embed(A @ B) = embed(A) @ embed(B)``, and ``embed(A^dag) = embed(A)^T``."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[-1]
    out = np.empty(A.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = out[..., n:, n:] = A.real
    out[..., n:, :n] = A.imag
    np.negative(A.imag, out=out[..., :n, n:])
    return out


def unembed(E):
    """The complex matrices ``(..., n, n)`` whose real form :func:`embed` is ``E``."""
    n = E.shape[-1] // 2
    A = np.empty(E.shape[:-2] + (n, n), dtype=complex)
    A.real, A.imag = E[..., :n, :n], E[..., n:, :n]
    return A


# (gamma + alpha)/2, (gamma - alpha)/2 and beta/2 of qubit 1, then of qubit 2,
# one row each, from the six angles (gamma1, beta1, alpha1, gamma2, beta2, alpha2)
_HALF_ANGLES = 0.5 * np.array([[1, 0, 1, 0, 0, 0],
                               [1, 0, -1, 0, 0, 0],
                               [0, 1, 0, 0, 0, 0],
                               [0, 0, 0, 1, 0, 1],
                               [0, 0, 0, 1, 0, -1],
                               [0, 0, 0, 0, 1, 0]], dtype=float).T
# their cosines then sines, indexed in pairs whose products are the quaternion
# (Re a, Im a, Re b, Im b) of each qubit's factor [[a, b], [-conj(b), conj(a)]]
_QUAT_LEFT = np.array([2, 2, 8, 8, 5, 5, 11, 11])
_QUAT_RIGHT = np.array([0, 6, 1, 7, 3, 9, 4, 10])


def _su2(q):
    """``[[a, b], [-conj(b), conj(a)]]`` of the quaternion ``(Re a, Im a, Re b, Im b)``."""
    a, b = complex(q[0], q[1]), complex(q[2], q[3])
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


# the real form of u1 (x) u2 is bilinear in the two quaternions: row 4i + j is
# its flattened value at the unit quaternions e_i, e_j.  Each column holds two
# entries of +-1 and zeros, so every product with it rounds once, whatever the
# batch it is computed in
_ROTATION_BLOCKS = np.stack([embed(np.kron(_su2(e), _su2(f))).ravel()
                             for e in np.eye(4) for f in np.eye(4)])


def local_rotation(angles):
    """Tensor product of two ZYZ Euler rotations, one per qubit, in the real
    form of :func:`embed`.

    ``angles`` has shape ``(..., 6)`` ordered
    ``(gamma1, beta1, alpha1, gamma2, beta2, alpha2)``; returns ``(..., 8, 8)``,
    and ``unembed`` of it is the ``(..., 4, 4)`` rotation in SU(2) (x) SU(2).
    Each factor ``exp(+i gamma/2 Z) exp(+i beta/2 Y) exp(+i alpha/2 Z)`` is
    ``[[a, b], [-conj(b), conj(a)]]`` with
    ``a = cos(beta/2) exp(i (gamma + alpha)/2)`` and
    ``b = sin(beta/2) exp(i (gamma - alpha)/2)``, so the real form is built
    from the real cosines and sines of those three half angles.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.shape[-1] != 6:
        raise ValueError(f"expected 6 Euler angles per rotation, got shape {angles.shape}")
    half = angles @ _HALF_ANGLES
    trig = np.concatenate([np.cos(half), np.sin(half)], axis=-1)
    q = trig[..., _QUAT_LEFT] * trig[..., _QUAT_RIGHT]
    outer = q[..., :4, None] * q[..., None, 4:]
    blocks = outer.reshape(angles.shape[:-1] + (16,)) @ _ROTATION_BLOCKS
    return blocks.reshape(angles.shape[:-1] + (8, 8))


def trace_fidelity(U, O):
    """``|tr(O^dag U)|^2 / 16``; global-phase invariant, in [0, 1].  Batched."""
    tr = np.einsum("...ji,...ji->...", np.asarray(O).conj(), np.asarray(U))
    return (tr.real ** 2 + tr.imag ** 2) / 16.0
