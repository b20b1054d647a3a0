"""Assembly of the sequence evolution operator, its error metrics, and the
calibration of the noise amplitude to a target uncorrected error.

The modeled operation interleaves N controllable local rotations with N
applications of a fixed weakly entangling two-qubit slice:

    U = [Z_N D_N R_N] [Z_N D_(N-1) R_(N-1)] ... [Z_N D_1 R_1]

where ``Z_N`` is the entangling slice, ``D_n = exp(-i Delta_n / N)`` carries
the noise of segment n, and ``R_n`` is the segment's local rotation.  The
noise-free target O is the same chain with ``D_n = 1`` and no angle noise.

Everything the package reports about a sequence comes from one kernel,
``ensemble_gates(angles, factors, delta_eta) -> (U, O)``.  ``ensemble_slices``
lays out a frozen ensemble once: the fixed factors ``F_mn = Z_N D_mn`` and
the local-angle perturbations of every member, with the target appended as
the last, noise-free member (``F = Z_N``, ``delta_eta = 0``).  The kernel
runs one chain over all members and splits off O.  The metrics are pure
functions of (U, O) (``ensemble_metrics`` here, the objective J in
``optimizer``).

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

from .gate_algebra import expm_hermitian, local_rotation, pauli_stack, trace_fidelity
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
        if self.N < 1:
            raise ValueError("segment count must be >= 1")
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


def chain_product(mats):
    """Ordered product ``mats[..., N-1] @ ... @ mats[..., 0]`` over the
    second-to-last axis (segment 1 = index 0 acts first)."""
    N = mats.shape[-3]
    out = mats[..., N - 1, :, :]
    for n in range(N - 2, -1, -1):
        out = out @ mats[..., n, :, :]
    return out


def segment_operators(angles, factors):
    """Segment operators ``F_n R_n`` from rotation angles ``(..., N, 6)`` and
    fixed factors ``F`` ``(..., N, 4, 4)`` (see ``ensemble_slices``)."""
    return np.einsum("...nac,...ncd->...nad", factors, local_rotation(angles))


def target_gate(params):
    """Noise-free target: product of slice * rotation over all segments."""
    Z = np.broadcast_to(zz_phase_slice(params.N), (params.N, 4, 4))
    return chain_product(segment_operators(params.angles.reshape(params.N, 6), Z))


def ensemble_slices(ensemble):
    """Lay out an ensemble for the kernel: the fixed factors
    ``F_mn = Z_N D_mn`` ``(M + 1, N, 4, 4)`` and the angle perturbations
    ``(M + 1, N, 6)``.  Members 0..M-1 are the realizations, with
    ``D_mn = exp(-i Delta_mn / N)``; member M is the noise-free target,
    ``F = Z_N`` and ``delta_eta = 0``.

    All noise generators are diagonalized in one batched call; quasistatic
    realizations repeat one segment generator across the segments.
    """
    first = ensemble[0]
    N = first.segment_count
    if any((r.segment_count, r.channels, r.kind) != (N, first.channels, first.kind)
           for r in ensemble):
        raise ValueError("ensemble realizations disagree on segment count, channels or kind")
    M = len(ensemble)
    sig = pauli_stack(first.channels)
    delta = np.stack([r.delta for r in ensemble])
    if first.kind == noise_model.QUASISTATIC:
        D = expm_hermitian(np.einsum("mc,cab->mab", delta[:, 0], sig), 1.0 / N)
        D = np.broadcast_to(D[:, None], (M, N, 4, 4))
    else:
        D = expm_hermitian(np.einsum("mnc,cab->mnab", delta, sig), 1.0 / N)
    Z = zz_phase_slice(N)
    factors = np.concatenate([Z @ D, np.broadcast_to(Z, (1, N, 4, 4))])
    delta_eta = np.concatenate([np.stack([r.delta_eta for r in ensemble]),
                                np.zeros((1, N, 6))])
    return factors, delta_eta


def ensemble_gates(angles, factors, delta_eta):
    """The evaluation kernel: one chain over the ensemble laid out by
    ``ensemble_slices``, returning the noisy gates ``U`` ``(M, 4, 4)`` and the
    noise-free target ``O`` ``(4, 4)``, its last member.

    The target's ``delta_eta`` is zero, so O uses the *unperturbed* angles;
    local noise enters only U.
    """
    params = SequenceParams(factors.shape[1], angles)
    perturbed = params.angles.reshape(1, params.N, 6) * (1.0 + delta_eta)
    chain = chain_product(segment_operators(perturbed, factors))
    return chain[:-1], chain[-1]


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
    if not ensemble:
        raise ValueError("ensemble must be nonempty")
    return ensemble_metrics(*ensemble_gates(params.angles, *ensemble_slices(ensemble)))


def uncorrected_error(config, N, M, seed=None):
    """Mean gate error of the identity-rotation sequence (no correction)."""
    ensemble = noise_model.make_ensemble(config, N, M, seed=seed)
    return evaluate_solution(SequenceParams(N, np.zeros(6 * N)), ensemble).epsilon


def calibrate_amplitude(target_uncorrected_error, config, N, M,
                        rel_tol=0.05, max_sigma=2.0):
    """Bisect sigma_nonlocal until the identity-rotation (uncorrected) gate
    error matches the target within ``rel_tol`` relative.

    The same ensemble substreams are reused for every trial amplitude
    (common random numbers), which makes the bisected function deterministic
    and monotone.
    """
    if target_uncorrected_error == 0:
        return 0.0
    if not 0 < target_uncorrected_error < 0.5:
        raise ValueError("target uncorrected error must lie in (0, 0.5)")

    def eps_at(sigma):
        return uncorrected_error(replace(config, sigma_nonlocal=sigma), N, M)

    lo, hi = 0.0, max(config.sigma_nonlocal, 0.05)
    while eps_at(hi) < target_uncorrected_error:
        hi *= 2.0
        if hi > max_sigma:
            raise RuntimeError(
                f"calibration failed to bracket the target below sigma={max_sigma}"
            )
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        eps = eps_at(mid)
        if abs(eps - target_uncorrected_error) <= rel_tol * target_uncorrected_error:
            return mid
        if eps < target_uncorrected_error:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
