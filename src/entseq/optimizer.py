"""Ensemble-averaged objective, its exact gradient, unconstrained quasi-Newton
minimization, and the divisor-cascade initialization across sequence lengths.

The objective for a frozen noise ensemble is

    J(x) = mean_m [ eps(U_m(x)) + D(U_m(x)) ]

i.e. gate error plus distance-to-perfect-entangler, averaged over the
realizations.  The ensemble is frozen for the whole minimization of one
sequence length (common random numbers) so the optimizer sees a deterministic
function; it is resampled between lengths.

Every value is computed from one evaluation of the sequence kernel
``sequence_engine.ensemble_gates``, which gives the noisy gates U_m and the
noise-free target O; J and the reported metrics are pure functions of
(U, O).  This module holds J, its cotangents with respect to U and O, and
the search.  Minimization uses SciPy's L-BFGS-B with the exact gradient of
J: the kernel's reverse pass (``sequence_engine.ensemble_gates_vjp``) pulls
the cotangents back to the angles through the forward loop's own partial
products, as fixed Pauli traces weighted by each member's Euler angles, so a
gradient costs about two evaluations of J, whatever N (1.6 to 2.3 at N = 2
to 16 and M = 1 to 100).
The termination conditions map one-to-one onto L-BFGS-B's ``ftol``
(relative J decrease with the max{|J_k|, |J_k+1|, 1} denominator) and
``pgtol`` (projected-gradient max-norm), fixed at ``TOL_J`` and ``TOL_GRADJ``.

``cascade_optimize`` adds a deterministic globalization layer on top of the
plain descent: repeated descents until the relative-decrease test fails
between rounds ("polish"), plus seeded perturbation kicks restarted from the
best point so far.  Plain L-BFGS-B reliably stalls in razor-thin valleys of
this landscape; the kicks recover another factor of 2-3 in final error and
cost only seconds at desk scale.

Each L-BFGS-B descent is one ``Descent`` record, whose J ``history`` starts
at the descent's own first evaluation, x0.  A result's ``J_history`` and
``iterations`` are read from the records of all its descents, in the order
they ran, and each length is tiled only from solutions of the same cascade.
"""

import json
import math
import os
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import scipy.optimize

from . import noise_model
from .sequence_engine import (
    SequenceParams,
    ensemble_gates,
    ensemble_gates_vjp,
    ensemble_metrics,
    ensemble_slices,
    gate_error,
)
from .weyl_geometry import (
    pe_fidelity_many,
    pe_functional_many,
    pe_functional_value_and_grad,
)

TERM_TOL_J = "tol_J"
TERM_TOL_GRADJ = "tol_gradJ"
TERM_MAX_ITER = "max_iter"
TERM_LINE_SEARCH = "line_search_failure"

# search-layer solution preferences: reported sequences should sit inside the
# perfect-entangler polyhedron for the whole noise ensemble whenever a basin
# with comparable J exists (cf. the reported eps_PE <= 1e-8 across lengths)
PE_TARGET = 1e-8
PE_J_MARGIN = 1.15
PE_REPAIR_WEIGHTS = (4.0, 16.0, 64.0)

# L-BFGS-B's tolerances (TOL_J also ends polishing), iteration cap and memory,
# and the kick scales: every config held these values while they were settings
TOL_J = 2.2e-6
TOL_GRADJ = 2.2e-6
MAX_ITERATIONS = 15000
HISTORY_SIZE = 10
KICK_SCALES = (0.02, 0.05, 0.15)


@dataclass
class OptimizerConfig:
    ensemble_size: int = 100
    polish_rounds: int = 6
    n_kicks: int = 16

    def __post_init__(self):
        counts = (self.ensemble_size, self.polish_rounds, self.n_kicks)
        if not all(noise_model.is_int(v) for v in counts):
            raise ValueError("count fields must be integers")
        if min(counts[:2]) < 1 or self.n_kicks < 0:
            raise ValueError("ensemble_size and polish_rounds must be >= 1, n_kicks >= 0")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        # configs written before the gradient was exact carry a step size
        d.pop("fd_step", None)
        return cls(**noise_model.without_retired(
            d, bounds=None, tol_J=TOL_J, tol_gradJ=TOL_GRADJ, max_iterations=MAX_ITERATIONS,
            history_size=HISTORY_SIZE, kick_scales=KICK_SCALES))


@dataclass
class OptimizationResult:
    params: SequenceParams
    J_final: float
    J_history: list
    final_metrics: object
    iterations: int
    termination_reason: str
    config: dict
    seeds: dict
    # both kept off to_dict(): the uncorrected error (identity rotations on
    # the same ensemble) goes to the summary CSV only, and the wall time
    # would make solution files irreproducible
    epsilon_uncorrected: float
    wall_time_s: float = 0.0

    def to_dict(self):
        return {
            "N": self.params.N,
            "angles": self.params.angles.tolist(),
            "J_final": self.J_final,
            "J_history": [float(v) for v in self.J_history],
            "epsilon": self.final_metrics.epsilon,
            "epsilon_pe": self.final_metrics.epsilon_pe,
            "iterations": self.iterations,
            "termination_reason": self.termination_reason,
            "config": self.config,
            "seeds": self.seeds,
        }


def objective_value(U, O, D, d_weight=1.0):
    """J = mean_m[eps + d_weight * D] of noisy gates ``U`` against ``O``, with
    ``D = pe_functional_many(U)``."""
    return float(np.mean(gate_error(U, O) + d_weight * D))


def objective_cotangents(U, O, G_D, d_weight=1.0):
    """Cotangents ``(G_U, G_O)`` of :func:`objective_value`:
    ``dJ = sum_m Re tr(G_U[m] dU_m) + Re tr(G_O dO)``.

    With ``t_m = tr(O^dag U_m)``, ``eps_m = 1 - |t_m|^2 / 16`` contributes
    ``-(conj(t_m) / 8) O^dag`` to U_m's cotangent and ``-(t_m / 8) U_m^dag``
    to O's; D contributes ``G_D``, its cotangent from
    :func:`pe_functional_value_and_grad`.
    """
    M = len(U)
    t = np.einsum("ji,mji->m", O.conj(), U)
    G_U = (-np.conj(t) / (8.0 * M))[:, None, None] * O.conj().T
    G_U += (d_weight / M) * G_D
    G_O = np.einsum("m,mji->ij", -t / (8.0 * M), U.conj())
    return G_U, G_O


class SequenceObjective:
    """J and its exact gradient on a frozen noise ensemble."""

    def __init__(self, ensemble):
        self.slices, self.delta_eta = ensemble_slices(ensemble)
        self.N = self.slices.shape[1]

    def gates(self, x):
        """(U, O) at x: the kernel on this objective's ensemble."""
        return ensemble_gates(x, self.slices, self.delta_eta)

    def value(self, x, d_weight=1.0):
        U, O = self.gates(x)
        return objective_value(U, O, pe_functional_many(U), d_weight)

    def epsilon_pe(self, x):
        return float(np.mean(1.0 - pe_fidelity_many(self.gates(x)[0])))

    def metrics(self, x):
        """Full EnsembleMetrics at x (per-realization eps and eps_PE)."""
        return ensemble_metrics(*self.gates(x))

    def value_and_grad(self, x, d_weight=1.0):
        """J at x (bit-identical to :meth:`value`) and its exact gradient, the
        kernel's pullback of J's cotangents; D and its cotangent share one pass."""
        U, O, pullback = ensemble_gates_vjp(x, self.slices, self.delta_eta)
        D, G_D = pe_functional_value_and_grad(U)
        J = objective_value(U, O, D, d_weight)
        return J, pullback(*objective_cotangents(U, O, G_D, d_weight))


def relative_decrease(J_prev, J_next):
    """Left-hand side of the J-decrease termination test."""
    return (J_prev - J_next) / max(abs(J_prev), abs(J_next), 1.0)


def classify_termination(message, nit):
    """Map an L-BFGS-B status message onto the two tolerance conditions."""
    msg = message.decode() if isinstance(message, bytes) else str(message)
    msg = msg.upper()
    if "PGTOL" in msg or "PROJECTED GRADIENT" in msg:
        return TERM_TOL_GRADJ
    if "REDUCTION OF F" in msg or "FACTR" in msg:
        return TERM_TOL_J
    if "ITERATIONS" in msg or nit >= MAX_ITERATIONS:
        return TERM_MAX_ITER
    return TERM_LINE_SEARCH


@dataclass
class Descent:
    """One L-BFGS-B descent: its end point x, J there, iterations, SciPy's
    status message and the J of each accepted iterate, the start first."""

    x: np.ndarray
    J: float
    nit: int
    message: str
    history: list


def _lbfgs(obj, x0, d_weight=1.0):
    """One L-BFGS-B descent from x0."""
    history = []

    def fun(x):
        J, g = obj.value_and_grad(x, d_weight)
        if not history:
            # L-BFGS-B evaluates its start point first
            history.append(J)
        return J, g

    def accept(intermediate_result):
        history.append(intermediate_result.fun)

    res = scipy.optimize.minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        callback=accept,
        options={
            "ftol": TOL_J,
            "gtol": TOL_GRADJ,
            "maxiter": MAX_ITERATIONS,
            "maxcor": HISTORY_SIZE,
        },
    )
    # res.x is the last accepted iterate (x0 if none was); after a
    # line-search failure res.fun is the J of a later trial point instead
    return Descent(res.x, history[-1], int(res.nit), res.message, history)


def _polish(obj, x0, config, log, d_weight=1.0):
    """Repeat descents, each from where the last one ended, until a round
    fails the relative-decrease test; appends every descent to ``log`` and
    returns the best."""
    x = np.asarray(x0, dtype=float)
    best = None
    for _ in range(config.polish_rounds):
        res = _lbfgs(obj, x, d_weight)
        log.append(res)
        if best is not None and relative_decrease(best.J, res.J) <= TOL_J:
            return res if res.J < best.J else best
        best = res
        x = res.x
    return best


def _search(obj, inits, config, rng, log):
    """Polished descents from each init, seeded kicks around the running
    best, and a perfect-entangler repair phase; appends every descent to
    ``log`` and returns the selected one.

    Selection prefers, among all converged candidates, the lowest-J one
    whose full-ensemble PE error is at or below ``PE_TARGET``, provided its
    J is within ``PE_J_MARGIN`` of the absolute best; otherwise the lowest
    J wins.  If no such candidate appears, extra descents with the PE term
    up-weighted generate repair candidates (evaluated and re-polished under
    the true objective before being considered).
    """
    candidates = []   # (J, eps_PE, Descent)

    def consider(res):
        candidates.append((res.J, obj.epsilon_pe(res.x), res))

    def select():
        best = min(candidates, key=lambda c: c[0])
        clean = [c for c in candidates if c[1] <= PE_TARGET]
        if clean:
            cand = min(clean, key=lambda c: c[0])
            if cand[0] <= best[0] * PE_J_MARGIN + 1e-12:
                return cand
        return best

    start_points = []
    for x0 in inits:
        x0 = np.asarray(x0, dtype=float)
        start_points.append(x0)
        start_points.append(x0 + rng.normal(0.0, 0.05, x0.size))
    for x0 in start_points:
        consider(_polish(obj, x0, config, log))
    n = start_points[0].size
    for k in range(config.n_kicks):
        scale = KICK_SCALES[k % len(KICK_SCALES)]
        kick = rng.normal(0.0, scale, n)
        if k % 3 == 2:
            # restrict every third kick to a random half of the segments
            mask = np.repeat(rng.random(n // 6) < 0.5, 6)
            kick = kick * mask
        consider(_polish(obj, select()[2].x + kick, config, log))

    for weight in PE_REPAIR_WEIGHTS:
        chosen = select()
        if chosen[1] <= PE_TARGET:
            break
        pushed = _polish(obj, chosen[2].x, config, log, d_weight=weight)
        # the pushed endpoint is itself a candidate, scored under the true
        # objective (re-polishing may slide back out of the polyhedron)
        consider(replace(pushed, J=obj.value(pushed.x)))
        consider(_polish(obj, pushed.x, config, log))
    return select()[2]


def _largest_proper_divisor(N):
    for p in range(2, int(math.isqrt(N)) + 1):
        if N % p == 0:
            return N // p
    return 1


def initialize_guess(N, solved):
    """Tile the solution of the largest proper divisor of N from ``solved``
    ({N: SequenceParams}), or fall back to identity rotations (all-zero
    angles) for primes and missing entries."""
    d = _largest_proper_divisor(N)
    if d > 1 and d in solved:
        return solved[d].tiled(N // d)
    return SequenceParams(N, np.zeros(6 * N))


def write_atomic(path, text):
    """Write ``text`` to ``path``, creating its directory, and return the
    path.  The file is replaced atomically, so an interrupted write leaves
    the previous file intact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def write_solution(out, result):
    """Write ``result`` to ``out/solution_<kind>_N<NNN>.json`` and return the path."""
    kind = result.config["noise"]["kind"]
    return write_atomic(Path(out, f"solution_{kind}_N{result.params.N:03d}.json"),
                        json.dumps(result.to_dict(), indent=1, sort_keys=True))


def derived_seed(root_seed, *key):
    """64-bit seed derived deterministically from a root seed and a key path."""
    ss = np.random.SeedSequence(entropy=int(root_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def ascending_lengths(N_list):
    """``N_list`` as a list; a ValueError unless it is strictly ascending integers >= 1."""
    N_list = list(N_list)
    if not (all(noise_model.is_int(N) and N >= 1 for N in N_list)
            and all(a < b for a, b in zip(N_list, N_list[1:]))):
        raise ValueError(f"N_list must be strictly ascending integers >= 1, got {N_list!r}")
    return N_list


def cascade_optimize(N_list, noise_config, optimizer_config, out=None,
                     progress=None):
    """Optimize each sequence length in ascending order, tiling earlier
    solutions of this call into the initial guesses of later ones.

    Each length gets a fresh ensemble whose seed is derived from the noise
    config's seed and N; all seeds are recorded in the results.  With an
    ``out`` directory each result is written there as soon as it is solved.
    A length whose linear algebra fails (``numpy.linalg.LinAlgError``) is
    reported and skipped without aborting the cascade; any other exception
    propagates.
    """
    N_list = ascending_lengths(N_list)
    solved = {}
    results = []
    for N in N_list:
        t0 = time.perf_counter()
        ensemble_seed = derived_seed(noise_config.seed, N, 0)
        search_seed = derived_seed(noise_config.seed, N, 1)
        try:
            ensemble = noise_model.make_ensemble(
                noise_config, N, optimizer_config.ensemble_size, seed=ensemble_seed
            )
            obj = SequenceObjective(ensemble)
            guess = initialize_guess(N, solved)
            inits = [guess.angles]
            if np.any(guess.angles):
                inits.append(np.zeros(6 * N))
            descents = []
            best = _search(
                obj, inits, optimizer_config, np.random.default_rng(search_seed), descents
            )
            result = OptimizationResult(
                params=SequenceParams(N, best.x),
                J_final=best.J,
                J_history=[J for d in descents for J in d.history],
                final_metrics=obj.metrics(best.x),
                iterations=sum(d.nit for d in descents),
                termination_reason=classify_termination(best.message, best.nit),
                config={
                    "optimizer": optimizer_config.to_dict(),
                    "noise": noise_config.to_dict(),
                },
                seeds={
                    "root_seed": int(noise_config.seed),
                    "ensemble_seed": ensemble_seed,
                    "search_seed": search_seed,
                },
                epsilon_uncorrected=float(np.mean(gate_error(*obj.gates(np.zeros(6 * N))))),
            )
        except np.linalg.LinAlgError as exc:
            if progress is not None:
                progress(f"N={N}: FAILED ({exc})")
            continue
        result.wall_time_s = time.perf_counter() - t0
        solved[N] = result.params
        if out is not None:
            write_solution(out, result)
        results.append(result)
        if progress is not None:
            progress(
                f"N={N}: J={result.J_final:.3e} eps={result.final_metrics.epsilon:.3e} "
                f"eps_pe={result.final_metrics.epsilon_pe:.2e} iters={result.iterations} "
                f"({result.wall_time_s:.1f}s)"
            )
    return results
