"""Assembly of the sequence evolution operator, its error metrics, and the
calibration of the noise amplitude to a target uncorrected error.

The modeled operation interleaves N controllable local rotations with N
applications of a fixed weakly entangling two-qubit slice:

    U = [Z_N D_N R_N] [Z_N D_(N-1) R_(N-1)] ... [Z_N D_1 R_1]

where ``Z_N`` is the entangling slice, ``D_n = exp(-i Delta_n / N)`` carries
the noise of segment n, and ``R_n`` is the segment's local rotation.  The
noise-free target O is the same chain with ``D_n = 1`` and no angle noise.

Everything the package reports about a sequence comes from one chain of
segment operators ``F_mn R_n``, multiplied out in one loop.
``ensemble_slices`` lays out a frozen ensemble once: the fixed factors
``F_mn = Z_N D_mn`` and the local-angle perturbations of every member, with
the target appended as the last, noise-free member (``F = Z_N``,
``delta_eta = 0``).  ``ensemble_gates`` runs the chain over all members and
returns (U, O), ``target_gate`` runs it on one noise-free member, and
``ensemble_gates_vjp`` adds the reverse pass, which reads each angle's
derivative as a trace of ``suffix @ cotangent @ prefix`` against a Pauli
matrix or a frame ``F_mn s F_mn^dag`` built once by ``pauli_frames``.  The
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
    expm_hermitian,
    local_rotation,
    pauli_stack,
    trace_fidelity,
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
    ``F_mn = Z_N D_mn`` ``(M + 1, N, 4, 4)`` and the angle perturbations
    ``(M + 1, N, 6)``.  Members 0..M-1 are the record's, with
    ``D_mn = exp(-i Delta_mn / N)``; member M is the noise-free target,
    ``F = Z_N`` and ``delta_eta = 0``.

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
    factors = np.concatenate([Z @ D, np.broadcast_to(Z, (1, N, 4, 4))])
    delta_eta = np.concatenate([ensemble.delta_eta, np.zeros((1, N, 6))])
    return factors, delta_eta


# Z, Y and X of qubit 1, then of qubit 2: the Paulis whose frames the angle
# gradient reads; and the diagonals of Z_1, Z_2 as columns
_FRAME_PAULIS = pauli_stack(((3, 0), (2, 0), (1, 0), (0, 3), (0, 2), (0, 1)))
_Z_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def pauli_frames(factors):
    """The frames ``K^s = F_mn s F_mn^dag`` of a layout's fixed factors for
    the six ``_FRAME_PAULIS`` s, ``(N, M + 1, 6, 16)``: each transposed and
    flattened, so that ``tr(K^s C)`` is its dot product with ``C`` flattened."""
    F = np.swapaxes(factors, 0, 1)[:, :, None]
    K = F @ _FRAME_PAULIS @ np.conj(np.swapaxes(F, -1, -2))
    return np.swapaxes(K, -1, -2).reshape(K.shape[:-2] + (16,))


def _chain(angles, factors, delta_eta):
    """The chain over a layout from ``ensemble_slices``: the perturbed angles
    ``p_mn = x_n (1 + delta_eta_mn)`` ``(M + 1, N, 6)``, the segment operators
    ``T_mn = F_mn R(p_mn)`` ``(M + 1, N, 4, 4)``, the prefix products
    ``prefix[k] = T_(N-1) ... T_(k+1)`` ``(N, M + 1, 4, 4)`` and the chain
    ``T_(N-1) ... T_0`` ``(M + 1, 4, 4)`` (segment 1 = index 0 acts first)."""
    params = SequenceParams(factors.shape[1], angles)
    N = params.N
    perturbed = params.angles.reshape(1, N, 6) * (1.0 + delta_eta)
    T = np.einsum("...nac,...ncd->...nad", factors, local_rotation(perturbed))
    prefix = np.empty((N,) + T.shape[:-3] + (4, 4), dtype=complex)
    prefix[N - 1] = np.eye(4)
    chain = T[..., N - 1, :, :]
    for k in range(N - 2, -1, -1):
        prefix[k] = chain
        chain = chain @ T[..., k, :, :]
    return perturbed, T, prefix, chain


def ensemble_gates(angles, factors, delta_eta):
    """The evaluation kernel: one chain over the ensemble laid out by
    ``ensemble_slices``, returning the noisy gates ``U`` ``(M, 4, 4)`` and the
    noise-free target ``O`` ``(4, 4)``, its last member.

    The target's ``delta_eta`` is zero, so O uses the *unperturbed* angles;
    local noise enters only U.
    """
    chain = _chain(angles, factors, delta_eta)[3]
    return chain[:-1], chain[-1]


def ensemble_gates_vjp(angles, factors, delta_eta, frames):
    """``(U, O)`` as :func:`ensemble_gates`, and ``pullback(G_U, G_O)``, the
    gradient by the 6N angles of ``sum_m Re tr(G_U[m] U_m) + Re tr(G_O O)``.
    ``frames`` must be :func:`pauli_frames` of these same ``factors``: only
    their shape is checked, and frames of other factors give a wrong gradient.

    Member m of the chain (the target O being the last) is ``P_k T_k S_k``,
    ``T_k = F_k R(p_k)``, with the prefix ``P_k = T_(N-1) ... T_(k+1)``
    (``P_-1 = U``), the suffix ``S_k = T_(k-1) ... T_0`` (``S_N = U``) and
    ``p_k = x_k (1 + delta_eta_mk)``.  With ``G`` its cotangent the pullback
    forms ``C_j = S_j G P_(j-1)`` for j = 0..N (``C_0 = G U``, ``C_N = U G``),
    building the suffix as it goes.  For qubit q of segment k, with
    ``K^s = F_k s F_k^dag`` and gamma_q the perturbed angle,

        d alpha_q = Re[(i/2) tr(Z_q C_k)]
        d gamma_q = Re[(i/2) tr(K^Z_q C_(k+1))]
        d beta_q  = Re[(i/2) (cos gamma_q tr(K^Y_q C_(k+1))
                              + sin gamma_q tr(K^X_q C_(k+1)))]

    and the derivative by ``x_k`` sums these over members, times
    ``1 + delta_eta_mk``.
    """
    perturbed, T, prefix, chain = _chain(angles, factors, delta_eta)
    N = T.shape[-3]
    if frames.shape[:2] != (N, len(T)):
        raise ValueError(f"frames {frames.shape} do not fit factors {factors.shape}")

    def pullback(G_U, G_O):
        G = np.concatenate([G_U, G_O[None]])
        C = np.empty((N + 1,) + G.shape, dtype=complex)
        C[0] = G @ chain
        C[1:N] = G @ prefix[:-1]
        S = T[:, 0]
        for j in range(1, N):
            C[j] = S @ C[j]
            S = T[:, j] @ S
        C[N] = chain @ G
        # Re[(i/2) tr] = -Im[tr] / 2; each qubit's Z, Y, X slots become its gamma, beta, alpha
        g = -0.5 * (frames @ C[1:].reshape(N, -1, 16, 1))[..., 0].imag
        gamma = np.swapaxes(perturbed[..., ::3], 0, 1)
        g[..., 1::3] = np.cos(gamma) * g[..., 1::3] + np.sin(gamma) * g[..., 2::3]
        g[..., 2::3] = -0.5 * (np.diagonal(C[:-1], axis1=-2, axis2=-1) @ _Z_SIGNS).imag
        g = np.swapaxes(g, 0, 1)
        # the target's factor 1 + delta_eta is exactly 1
        return ((g[:-1] * (1.0 + delta_eta[:-1])).sum(axis=0) + g[-1]).ravel()

    return chain[:-1], chain[-1], pullback


def target_gate(params):
    """Noise-free target: the kernel on a one-member layout, ``F = Z_N`` and
    no angle noise."""
    Z = np.broadcast_to(zz_phase_slice(params.N), (1, params.N, 4, 4))
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
