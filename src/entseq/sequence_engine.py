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
``ensemble_gates_vjp`` adds the reverse pass over the same chain.  The
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
    local_rotation_grad,
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
    """Lay out an ensemble for the kernel: the fixed factors
    ``F_mn = Z_N D_mn`` ``(M + 1, N, 4, 4)`` and the angle perturbations
    ``(M + 1, N, 6)``.  Members 0..M-1 are the realizations, with
    ``D_mn = exp(-i Delta_mn / N)``; member M is the noise-free target,
    ``F = Z_N`` and ``delta_eta = 0``.

    All noise generators are diagonalized in one batched call: one per member
    when every member's coefficients repeat across the segments, as
    quasistatic ones do, else one per member and segment.
    """
    if not ensemble:
        raise ValueError("ensemble must be nonempty")
    first = ensemble[0]
    N = first.delta.shape[0]
    if any((r.delta.shape[0], r.channels) != (N, first.channels) for r in ensemble):
        raise ValueError("ensemble realizations disagree on segment count or channels")
    M = len(ensemble)
    sig = pauli_stack(first.channels)
    delta = np.stack([r.delta for r in ensemble])
    if (delta == delta[:, :1]).all():
        D = expm_hermitian(np.einsum("mc,cab->mab", delta[:, 0], sig), 1.0 / N)
        D = np.broadcast_to(D[:, None], (M, N, 4, 4))
    else:
        D = expm_hermitian(np.einsum("mnc,cab->mnab", delta, sig), 1.0 / N)
    Z = zz_phase_slice(N)
    factors = np.concatenate([Z @ D, np.broadcast_to(Z, (1, N, 4, 4))])
    delta_eta = np.concatenate([np.stack([r.delta_eta for r in ensemble]),
                                np.zeros((1, N, 6))])
    return factors, delta_eta


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


def ensemble_gates_vjp(angles, factors, delta_eta):
    """``(U, O)`` as :func:`ensemble_gates`, and ``pullback(G_U, G_O)``, the
    gradient by the 6N angles of ``sum_m Re tr(G_U[m] U_m) + Re tr(G_O O)``.

    Member m of the chain (the target O being the last) is
    ``P_k F_mk R(p_mk) S_k`` with the prefix products ``P_k = T_(N-1) ... T_(k+1)``,
    the suffix products ``S_k = T_(k-1) ... T_0`` and
    ``p_mk = x_k (1 + delta_eta_mk)``, so with ``G_m`` its cotangent the
    derivative by ``x_ks`` is
    ``sum_m Re tr(S_k G_m P_k F_mk dR_s(p_mk)) (1 + delta_eta_mks)``.
    """
    perturbed, T, prefix, chain = _chain(angles, factors, delta_eta)
    # the suffix products now, while T is still in cache
    suffix = np.empty_like(prefix)
    suffix[0] = np.eye(4)
    for k in range(1, len(suffix)):
        suffix[k] = T[..., k - 1, :, :] @ suffix[k - 1]

    def pullback(G_U, G_O):
        G = np.concatenate([G_U, G_O[None]])
        # segment-major, like the partial products
        W = suffix @ G @ prefix @ np.swapaxes(factors, 0, 1)
        g = local_rotation_grad(perturbed, np.swapaxes(W, 0, 1))
        one_plus_de = 1.0 + delta_eta
        # the target's factor 1 + delta_eta is exactly 1
        return ((g[:-1] * one_plus_de[:-1]).sum(axis=0) + g[-1]).ravel()

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


def uncorrected_error(config, N, M):
    """Mean gate error of the identity-rotation sequence (no correction)."""
    ensemble = noise_model.make_ensemble(config, N, M)
    return evaluate_solution(SequenceParams(N, np.zeros(6 * N)), ensemble).epsilon


CALIBRATION_REL_TOL = 0.05   # bisection stops this close to the target, relative
CALIBRATION_MAX_SIGMA = 2.0  # bracketing the target gives up above this amplitude


def calibrate_amplitude(target, config, N, M):
    """Bisect sigma_nonlocal until the identity-rotation (uncorrected) gate
    error matches the target within ``CALIBRATION_REL_TOL`` relative.

    The same ensemble substreams are reused for every trial amplitude
    (common random numbers), which makes the bisected function deterministic
    and monotone.  A ValueError unless the target is a number in (0, 0.5); a
    RuntimeError when no amplitude up to ``CALIBRATION_MAX_SIGMA`` reaches it.
    """
    if not (noise_model.is_real(target) and 0 < target < 0.5):
        raise ValueError(f"target error must be a number in (0, 0.5), got {target!r}")

    def eps_at(sigma):
        return uncorrected_error(replace(config, sigma_nonlocal=sigma), N, M)

    lo, hi = 0.0, max(config.sigma_nonlocal, 0.05)
    while eps_at(hi) < target:
        hi *= 2.0
        if hi > CALIBRATION_MAX_SIGMA:
            raise RuntimeError(
                f"calibration failed to bracket the target below sigma={CALIBRATION_MAX_SIGMA}"
            )
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        eps = eps_at(mid)
        if abs(eps - target) <= CALIBRATION_REL_TOL * target:
            return mid
        if eps < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
