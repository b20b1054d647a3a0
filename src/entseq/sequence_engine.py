"""Assembly of the sequence evolution operator and its error metrics.

The modeled operation interleaves N controllable local rotations with N
applications of a fixed weakly entangling two-qubit slice:

    U = [Z_N D_N R_N] [Z_N D_(N-1) R_(N-1)] ... [Z_N D_1 R_1]

where ``Z_N`` is the entangling slice, ``D_n = exp(-i Delta_n / N)`` carries
the noise of segment n, and ``R_n`` is the segment's local rotation.  The
noise-free target O uses the same rotations with ``D_n = 1``.

Everything the package reports about a sequence comes from one kernel,
``ensemble_gates(angles, slices, delta_eta) -> (U, O)``: the noisy gates
``U_m`` of a frozen ensemble (stacked noise slices and local-angle
perturbations, see ``ensemble_slices``) and their noise-free target O.  The
metrics are pure functions of that pair (``ensemble_metrics`` here, the
objective J in ``optimizer``).

Entangling-slice convention: ``Z_N`` is the principal Nth root of the 2*pi
phase gate, ``diag(1, 1, 1, exp(2j*pi/N))``, i.e. slicing the identity into N
controlled-phase pieces.  The pure-Ising form ``exp(-i*pi/N ZZ)`` differs from
this by single-qubit Z rotations that merge into the neighboring R_n -- except
at N = 2, where ``exp(-i*pi/2 ZZ)`` is proportional to Z (x) Z and the whole
sequence would collapse to a local gate, making a perfect entangler
unreachable.  The controlled-phase root stays entangling for every N >= 2.
"""

import numpy as np
from dataclasses import dataclass

from .gate_algebra import local_rotation, pauli_stack, trace_fidelity
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


def target_segment_operators(params):
    """Noise-free segment operators ``Z_N R_n``, shape ``(N, 4, 4)``."""
    return zz_phase_slice(params.N) @ local_rotation(params.angles.reshape(params.N, 6))


def target_gate(params):
    """Noise-free target: product of slice * rotation over all segments."""
    return chain_product(target_segment_operators(params))


def noise_slice_operators(realization, N=None):
    """``D_n = exp(-i Delta_n / N)`` for every segment of one realization,
    shape ``(N, 4, 4)``.

    The noise generators are diagonalized per segment; quasistatic
    realizations repeat one (already diagonalized) segment operator.
    """
    from .gate_algebra import expm_hermitian

    N = realization.segment_count if N is None else N
    sig = pauli_stack(realization.channels)
    if realization.kind == noise_model.QUASISTATIC:
        D = expm_hermitian(np.einsum("c,cab->ab", realization.delta[0], sig), 1.0 / N)
        return np.broadcast_to(D, (N, 4, 4))
    Delta = np.einsum("nc,cab->nab", realization.delta, sig)
    return expm_hermitian(Delta, 1.0 / N)


def ensemble_slices(ensemble):
    """Stacked noise-slice operators ``(M, N, 4, 4)`` and angle perturbations
    ``(M, N, 6)`` for a list of realizations."""
    N = ensemble[0].segment_count
    if any(r.segment_count != N for r in ensemble):
        raise ValueError("ensemble realizations disagree on segment count")
    slices = np.stack([noise_slice_operators(r, N) for r in ensemble])
    delta_eta = np.stack([r.delta_eta for r in ensemble])
    return slices, delta_eta


def segment_operators(perturbed, slices):
    """Segment operators ``Z_N D_n R_n`` of every ensemble member, shape
    ``(M, N, 4, 4)``, from perturbed angles ``(M, N, 6)`` (or ``(1, N, 6)``)
    and noise slices ``(M, N, 4, 4)``."""
    Z = zz_phase_slice(slices.shape[1])
    R = local_rotation(perturbed)
    return np.einsum("ab,mnbc,mncd->mnad", Z, slices, R)


def ensemble_gates(angles, slices, delta_eta):
    """The evaluation kernel: noisy gates ``U`` ``(M, 4, 4)`` of the ensemble
    given by ``ensemble_slices`` and the noise-free target ``O`` ``(4, 4)``.

    The target uses the *unperturbed* angles; local noise enters only U.
    """
    params = SequenceParams(slices.shape[1], angles)
    perturbed = params.angles.reshape(1, params.N, 6) * (1.0 + delta_eta)
    return chain_product(segment_operators(perturbed, slices)), target_gate(params)


def evolve(params, realization):
    """Noisy evolution operator of one realization: perturbed rotations,
    noise slice, then the entangling slice, per segment."""
    if realization.segment_count != params.N:
        raise ValueError(
            f"realization has {realization.segment_count} segments, params {params.N}"
        )
    return ensemble_gates(params.angles, *ensemble_slices([realization]))[0][0]


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
