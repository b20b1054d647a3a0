"""Assembly of the sequence evolution operator, its error metrics, and the
calibration of the noise amplitude to a target uncorrected error.

The modeled operation interleaves N controllable local rotations with N
applications of a fixed weakly entangling two-qubit slice:

    U = [Z_N D_N R_N] [Z_N D_(N-1) R_(N-1)] ... [Z_N D_1 R_1]

where ``Z_N`` is the entangling slice, ``D_n = exp(-i Delta_n / N)`` carries
the noise of segment n, and ``R_n`` is the segment's local rotation.  The
noise-free target O is the same chain with ``D_n = 1`` and no angle noise.

Everything the package reports about a sequence comes from one chain of
segment operators ``F_mn R_n``, multiplied out in one loop.  The chain runs in
real arithmetic: each 4x4 complex operator A is carried as its 8x8 real form
``embed(A) = [[Re A, -Im A], [Im A, Re A]]`` (``gate_algebra``), whose products
are the real forms of the complex products and whose transpose is the real
form of ``A^dag``.  ``ensemble_slices`` lays out a frozen ensemble once, in
that form: the fixed factors ``F_mn = Z_N D_mn`` and the local-angle
perturbations of every member, with the target appended as the last,
noise-free member (``F = Z_N``, ``delta_eta = 0``).  When no member perturbs
the angles the perturbations are one zero row, and one set of N rotations
serves every member.  ``ensemble_gates`` runs the chain over all members and
returns the complex (U, O), ``target_gate`` runs it on one noise-free member,
and ``ensemble_gates_vjp`` adds the reverse pass: it conjugates
``U @ cotangent`` by the partial products the forward loop kept, and reads
each angle's derivative from the traces of the result against the six
single-qubit Paulis, weighted by the member's own Euler angles.  The
metrics are pure functions of (U, O) (``ensemble_metrics`` here, J and its
cotangents in ``optimizer``).

Entangling-slice convention: ``Z_N`` is the principal Nth root of the 2*pi
phase gate, ``diag(1, 1, 1, exp(2j*pi/N))``, i.e. slicing the identity into N
controlled-phase pieces.  The pure-Ising form ``exp(-i*pi/N ZZ)`` differs from
this by single-qubit Z rotations that merge into the neighboring R_n -- except
at N = 2, where ``exp(-i*pi/2 ZZ)`` is proportional to Z (x) Z and the whole
sequence would collapse to a local gate, making a perfect entangler
unreachable.  The controlled-phase root stays entangling for every N >= 2.
"""

from dataclasses import dataclass, replace

import numpy as np

from .gate_algebra import (
    embed,
    expm_hermitian,
    local_rotation,
    pauli_stack,
    trace_fidelity,
    unembed,
)
from .weyl_geometry import pe_fidelity_many
from . import noise_model


@dataclass
class SequenceParams:
    """Decision vector: segment count N and the 6N Euler angles, ordered
    segment-major, within a segment (gamma1, beta1, alpha1, gamma2, beta2, alpha2)."""

    N: int
    angles: np.ndarray

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float).ravel()
        if not (noise_model.is_int(self.N) and self.N >= 1):
            raise ValueError(f"segment count must be an integer >= 1, got {self.N!r}")
        if self.angles.size != 6 * self.N:
            raise ValueError(
                f"angle vector length {self.angles.size} != 6*N = {6 * self.N}"
            )
        if not np.all(np.isfinite(self.angles)):
            raise ValueError("angles must be finite")

    def tiled(self, times):
        """Repeat the per-segment angles ``times`` times (length-d solution
        tiled to length d*times)."""
        tiles = np.tile(self.angles.reshape(self.N, 6), (times, 1))
        return SequenceParams(self.N * times, tiles.ravel())


@dataclass
class EnsembleMetrics:
    """Noise-ensemble gate-error and PE-error averages."""

    epsilon: float
    epsilon_pe: float
    per_realization: list   # [(eps_m, eps_pe_m), ...]

    def to_dict(self):
        return {
            "epsilon": self.epsilon,
            "epsilon_pe": self.epsilon_pe,
            "per_realization": [[float(a), float(b)] for a, b in self.per_realization],
        }


def zz_phase_slice(N):
    """The entangling slice ``diag(1, 1, 1, exp(2j*pi/N))`` (see module docstring)."""
    return np.diag(np.exp(2j * np.pi / N * np.array([0.0, 0.0, 0.0, 1.0])))


def ensemble_slices(ensemble):
    """Lay out an ``Ensemble`` for the kernel: the fixed factors
    ``F_mn = Z_N D_mn`` ``(M + 1, N, 8, 8)``, in the real form of
    ``gate_algebra.embed``, and the angle perturbations ``(M + 1, N, 6)``.
    Members 0..M-1 are the record's, with ``D_mn = exp(-i Delta_mn / N)``;
    member M is the noise-free target, ``F = Z_N`` and ``delta_eta = 0``.
    When no member perturbs the angles the perturbations are one zero row
    ``(1, N, 6)``, which the kernel broadcasts over the members.

    All noise generators are diagonalized in one batched call: one per member
    when every member's coefficients repeat across the segments, as
    quasistatic ones do, else one per member and segment.
    """
    delta = ensemble.delta
    M, N = delta.shape[:2]
    sig = pauli_stack(ensemble.channels)
    if (delta == delta[:, :1]).all():
        D = expm_hermitian(np.einsum("mc,cab->mab", delta[:, 0], sig), 1.0 / N)
        D = np.broadcast_to(D[:, None], (M, N, 4, 4))
    else:
        D = expm_hermitian(np.einsum("mnc,cab->mnab", delta, sig), 1.0 / N)
    Z = zz_phase_slice(N)
    # Z is diagonal, so Z D scales the rows of D
    factors = embed(np.concatenate([np.diagonal(Z)[:, None] * D,
                                    np.broadcast_to(Z, (1, N, 4, 4))]))
    delta_eta = np.zeros((1, N, 6))
    if ensemble.delta_eta.any():
        delta_eta = np.concatenate([ensemble.delta_eta, delta_eta])
    return factors, delta_eta


def _pauli_traces():
    """The constant ``(64, 6)`` matrix that takes a flattened real form
    ``embed(C)`` to ``Re[(i/2) tr(s C)] = -Im[tr(s C)] / 2`` for s = X, Y, Z
    of qubit 1, then of qubit 2.  ``tr(s C) = sum_ij s_ji C_ij``, and the
    real form holds ``Re C`` in its top-left block and ``Im C`` below it."""
    s = pauli_stack(((1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3))).transpose(0, 2, 1)
    W = np.zeros((6, 8, 8))
    W[:, :4, :4] = -0.5 * s.imag
    W[:, 4:, :4] = -0.5 * s.real
    return W.reshape(6, 64).T


_PAULI_TRACES = _pauli_traces()


def _chain(angles, factors, delta_eta):
    """The chain over a layout from ``ensemble_slices``: the perturbed angles
    ``p_mn = x_n (1 + delta_eta_mn)`` ``(M + 1, N, 6)`` (one row when
    ``delta_eta`` has one) and the partial products ``P`` ``(N, M + 1, 8, 8)``
    in real form, ``P[k] = T_(N-1) ... T_k`` with ``T_mn = F_mn R(p_mn)``
    (segment 1 = index 0 acts first); ``P[0]`` is the chain.  The loop
    multiplies each product into its own slot of ``P``."""
    params = SequenceParams(factors.shape[1], angles)
    N = params.N
    perturbed = params.angles.reshape(1, N, 6) * (1.0 + delta_eta)
    T = factors @ local_rotation(perturbed)
    P = np.empty((N, len(T), 8, 8))
    P[N - 1] = T[:, N - 1]
    for k in range(N - 2, -1, -1):
        np.matmul(P[k + 1], T[:, k], out=P[k])
    return perturbed, P


def ensemble_gates(angles, factors, delta_eta):
    """The evaluation kernel: one chain over the ensemble laid out by
    ``ensemble_slices``, returning the noisy gates ``U`` ``(M, 4, 4)`` and the
    noise-free target ``O`` ``(4, 4)``, its last member, as complex matrices.

    The target's ``delta_eta`` is zero, so O uses the *unperturbed* angles;
    local noise enters only U.
    """
    chain = unembed(_chain(angles, factors, delta_eta)[1][0])
    return chain[:-1], chain[-1]


def ensemble_gates_vjp(angles, factors, delta_eta):
    """``(U, O)`` as :func:`ensemble_gates`, and ``pullback(G_U, G_O)``, the
    gradient by the 6N angles of ``sum_m Re tr(G_U[m] U_m) + Re tr(G_O O)``.

    Member m of the chain (the target O being the last) is ``P_k T_k S_k``,
    ``T_k = F_k R(p_k)``, with the partial product ``P_k = T_(N-1) ... T_(k+1)``
    (``P_-1 = U``), the rest ``S_k = T_(k-1) ... T_0`` and
    ``p_k = x_k (1 + delta_eta_mk)``.  An angle's derivative is
    ``Re tr(R_k^dag dR_k C_k)`` with ``C_k = S_k G P_(k-1)``, G the member's
    cotangent; the chain is unitary, so ``S_k = P_(k-1)^dag U`` and
    ``C_k = P_(k-1)^dag (U G) P_(k-1)``, read from the forward loop's partial
    products in two batched real products (the real form of ``A^dag`` is
    the transpose of A's).  For qubit q of segment k, with
    ``t_s = Re[(i/2) tr(s_q C_k)]`` for s = X, Y, Z, one product with a
    constant (64, 6) matrix, and (gamma, beta, alpha) the perturbed angles of
    R's factor ``exp(i gamma Z/2) exp(i beta Y/2) exp(i alpha Z/2)``,

        d alpha = t_Z
        d gamma = sin beta (cos alpha t_X + sin alpha t_Y) + cos beta t_Z
        d beta  = cos alpha t_Y - sin alpha t_X

    and the derivative by ``x_k`` sums these over members, times
    ``1 + delta_eta_mk``.
    """
    perturbed, P = _chain(angles, factors, delta_eta)  # P[k] = P_(k-1), P[0] = U
    N, rows = len(P), len(perturbed)
    U = unembed(P[0])

    def pullback(G_U, G_O):
        G = embed(np.concatenate([G_U, G_O[None]]))
        C = np.swapaxes(P, -1, -2) @ (P[0] @ G) @ P
        # members that share a row of perturbed angles (all of them when
        # delta_eta has one row) add their traces before the angle weights
        t = np.swapaxes(C.reshape(N, rows, -1, 64).sum(axis=2) @ _PAULI_TRACES, 0, 1)
        tX, tY, tZ = t[..., 0::3], t[..., 1::3], t[..., 2::3]
        beta, alpha = perturbed[..., 1::3], perturbed[..., 2::3]
        ca, sa = np.cos(alpha), np.sin(alpha)
        g = np.empty_like(t)
        g[..., 0::3] = np.sin(beta) * (ca * tX + sa * tY) + np.cos(beta) * tZ
        g[..., 1::3] = ca * tY - sa * tX
        g[..., 2::3] = tZ
        return (g * (1.0 + delta_eta)).sum(axis=0).ravel()

    return U[:-1], U[-1], pullback


def target_gate(params):
    """Noise-free target: the kernel on a one-member layout, ``F = Z_N`` and
    no angle noise."""
    Z = np.broadcast_to(embed(zz_phase_slice(params.N)), (1, params.N, 8, 8))
    return ensemble_gates(params.angles, Z, np.zeros((1, params.N, 6)))[1]


def gate_error(U, O):
    """``1 - |tr(O^dag U)|^2 / 16``."""
    return 1.0 - trace_fidelity(U, O)


def ensemble_metrics(U, O):
    """Gate error and PE error of noisy gates ``U`` against the target ``O``."""
    eps = gate_error(U, O)
    eps_pe = 1.0 - pe_fidelity_many(U)
    per = list(zip(eps.tolist(), eps_pe.tolist()))
    # np.mean reduces float64 with pairwise (tree) summation
    return EnsembleMetrics(float(np.mean(eps)), float(np.mean(eps_pe)), per)


def evaluate_solution(params, ensemble):
    """Gate error and PE error of ``params`` averaged over a noise ensemble."""
    return ensemble_metrics(*ensemble_gates(params.angles, *ensemble_slices(ensemble)))


def uncorrected_errors(ensemble):
    """Gate error of each member under identity rotations (no correction)."""
    return gate_error(*ensemble_gates(np.zeros(6 * ensemble.delta.shape[1]),
                                      *ensemble_slices(ensemble)))


CALIBRATION_REL_TOL = 0.05   # bisection stops this close to the target, relative
CALIBRATION_MAX_SIGMA = 2.0  # bracketing the target gives up above this amplitude


def calibrate_amplitude(target, config, N, M):
    """Bisect sigma_nonlocal until the identity-rotation (uncorrected) gate
    error matches the target within ``CALIBRATION_REL_TOL`` relative; returns
    ``(sigma, errors)``, the amplitude and its members' uncorrected errors.

    One ensemble, drawn at ``sigma_nonlocal = 1`` and scaled for each trial to
    ``0.0 + sigma * delta`` (bit for bit its draw at sigma), makes the bisected
    function deterministic and monotone.  A ValueError unless the target is a
    number in (0, 0.5); a RuntimeError when no amplitude up to ``CALIBRATION_MAX_SIGMA`` reaches it.
    """
    if not (noise_model.is_real(target) and 0 < target < 0.5):
        raise ValueError(f"target error must be a number in (0, 0.5), got {target!r}")
    unit = noise_model.make_ensemble(replace(config, sigma_nonlocal=1.0), N, M)

    def errors_at(sigma):
        return uncorrected_errors(replace(unit, delta=0.0 + sigma * unit.delta))

    lo, hi = 0.0, max(config.sigma_nonlocal, 0.05)
    while np.mean(errors_at(hi)) < target:
        hi *= 2.0
        if hi > CALIBRATION_MAX_SIGMA:
            raise RuntimeError(
                f"calibration failed to bracket the target below sigma={CALIBRATION_MAX_SIGMA}"
            )
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        errors = errors_at(mid)
        eps = np.mean(errors)
        if abs(eps - target) <= CALIBRATION_REL_TOL * target:
            return mid, errors
        if eps < target:
            lo = mid
        else:
            hi = mid
    sigma = 0.5 * (lo + hi)
    return sigma, errors_at(sigma)
