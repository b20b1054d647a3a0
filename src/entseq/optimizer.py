"""Ensemble-averaged objective, its exact gradient, bounded quasi-Newton
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
(U, O).  Minimization uses SciPy's L-BFGS-B with the exact gradient of J,
computed here by one reverse pass over the kernel's chain: the cotangents of
J with respect to U and O (O being the chain's last member) are propagated
through prefix/suffix products of the segment operators and contracted with
the closed-form derivatives of the Euler rotations, so a gradient costs a
few evaluations of J, whatever N.
The termination conditions map one-to-one onto L-BFGS-B's ``ftol``
(relative J decrease with the max{|J_k|, |J_k+1|, 1} denominator) and
``pgtol`` (projected-gradient max-norm).

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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.optimize

from . import noise_model
from .sequence_engine import (
    SequenceParams,
    ensemble_gates,
    ensemble_metrics,
    ensemble_slices,
    gate_error,
    segment_operators,
)
from .gate_algebra import local_rotation_grad
from .weyl_geometry import pe_functional_grad, pe_functional_many

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


def _finite_positive(v):
    return math.isfinite(v) and v > 0


@dataclass
class OptimizerConfig:
    ensemble_size: int = 100
    tol_J: float = 2.2e-6
    tol_gradJ: float = 2.2e-6
    max_iterations: int = 15000
    history_size: int = 10
    bounds: tuple | None = None       # optional (lo, hi) box per angle
    polish_rounds: int = 6
    n_kicks: int = 16
    kick_scales: tuple = (0.02, 0.05, 0.15)

    def __post_init__(self):
        if not (_finite_positive(self.tol_J) and _finite_positive(self.tol_gradJ)):
            raise ValueError("tol_J and tol_gradJ must be finite and positive")
        counts = (self.ensemble_size, self.history_size, self.max_iterations,
                  self.polish_rounds, self.n_kicks)
        if not all(noise_model.is_int(v) for v in counts):
            raise ValueError("count fields must be integers")
        if min(counts[:4]) < 1:
            raise ValueError(
                "ensemble_size, history_size, max_iterations and polish_rounds must be >= 1"
            )
        if self.n_kicks < 0:
            raise ValueError("n_kicks must be >= 0")
        if not self.kick_scales or not all(_finite_positive(v) for v in self.kick_scales):
            raise ValueError("kick_scales must be nonempty, finite and positive")
        if self.bounds is not None:
            lo, hi = self.bounds
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError("bounds must be finite with lo < hi")

    def to_dict(self):
        d = {
            "ensemble_size": self.ensemble_size,
            "tol_J": self.tol_J,
            "tol_gradJ": self.tol_gradJ,
            "max_iterations": self.max_iterations,
            "history_size": self.history_size,
            "bounds": list(self.bounds) if self.bounds is not None else None,
            "polish_rounds": self.polish_rounds,
            "n_kicks": self.n_kicks,
            "kick_scales": list(self.kick_scales),
        }
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        # configs written before the gradient was exact carry a step size
        d.pop("fd_step", None)
        if d.get("bounds") is not None:
            d["bounds"] = tuple(d["bounds"])
        if "kick_scales" in d:
            d["kick_scales"] = tuple(d["kick_scales"])
        return cls(**d)


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


def objective_value(U, O, d_weight=1.0):
    """J = mean_m[eps + d_weight * D] of noisy gates ``U`` against ``O``."""
    return float(np.mean(gate_error(U, O) + d_weight * pe_functional_many(U)))


def objective_cotangents(U, O, d_weight=1.0):
    """Cotangents ``(G_U, G_O)`` of :func:`objective_value`:
    ``dJ = sum_m Re tr(G_U[m] dU_m) + Re tr(G_O dO)``.

    With ``t_m = tr(O^dag U_m)``, ``eps_m = 1 - |t_m|^2 / 16`` contributes
    ``-(conj(t_m) / 8) O^dag`` to U_m's cotangent and ``-(t_m / 8) U_m^dag``
    to O's; D contributes through :func:`pe_functional_grad`.
    """
    M = len(U)
    t = np.einsum("ji,mji->m", O.conj(), U)
    G_U = (-np.conj(t) / (8.0 * M))[:, None, None] * O.conj().T
    G_U += (d_weight / M) * pe_functional_grad(U)
    G_O = np.einsum("m,mji->ij", -t / (8.0 * M), U.conj())
    return G_U, G_O


def _partial_products(T):
    """Prefix and suffix products of segment operators ``T`` ``(..., N, 4, 4)``:
    ``prefix[k] = T_(N-1) ... T_(k+1)`` and ``suffix[k] = T_(k-1) ... T_0``,
    each ``(N, ..., 4, 4)``, and the full product in ``chain_product``'s
    order (so bit-identical to it)."""
    N = T.shape[-3]
    eye = np.broadcast_to(np.eye(4, dtype=complex), T.shape[:-3] + (4, 4))
    prefix = np.empty((N,) + eye.shape, dtype=complex)
    suffix = np.empty_like(prefix)
    acc = eye
    for k in range(N - 1, -1, -1):
        prefix[k] = acc
        acc = acc @ T[..., k, :, :]
    full = acc
    acc = eye
    for k in range(N):
        suffix[k] = acc
        acc = T[..., k, :, :] @ acc
    return prefix, suffix, full


class SequenceObjective:
    """J and its exact gradient on a frozen noise ensemble."""

    def __init__(self, N, ensemble):
        self.N = N
        self.slices, self.delta_eta = ensemble_slices(ensemble)
        # segment-major, to line up with the partial products
        self._ZD = np.ascontiguousarray(np.swapaxes(self.slices, 0, 1))

    def gates(self, x):
        """(U, O) at x: the kernel on this objective's ensemble."""
        return ensemble_gates(x, self.slices, self.delta_eta)

    def value(self, x, d_weight=1.0):
        return objective_value(*self.gates(x), d_weight)

    def epsilon_pe(self, x):
        return ensemble_metrics(*self.gates(x)).epsilon_pe

    def metrics(self, x):
        """Full EnsembleMetrics at x (per-realization eps and eps_PE)."""
        return ensemble_metrics(*self.gates(x))

    def value_and_grad(self, x, d_weight=1.0):
        """J at x (bit-identical to :meth:`value`) and its exact gradient by
        one reverse pass.

        Member m of the kernel's chain (the target O being the last, noise-free
        one) is ``P_k F_mk R(p_mk) S_k`` with ``P``/``S`` the prefix/suffix
        products, ``F_mk = Z D_mk`` and ``p_mk = x_k (1 + delta_eta_mk)``, so
        with the cotangents ``G_m`` of :func:`objective_cotangents`
        ``dJ/dx_ks = sum_m Re tr(S_k G_m P_k F_mk dR_s(p_mk)) (1 + delta_eta_mks)``.
        """
        x = np.asarray(x, dtype=float)
        one_plus_de = 1.0 + self.delta_eta
        perturbed = x.reshape(1, self.N, 6) * one_plus_de
        prefix, suffix, chain = _partial_products(segment_operators(perturbed, self.slices))
        U, O = chain[:-1], chain[-1]
        J = objective_value(U, O, d_weight)

        G_U, G_O = objective_cotangents(U, O, d_weight)
        G = np.concatenate([G_U, G_O[None]])
        W = np.swapaxes(suffix @ G @ prefix @ self._ZD, 0, 1)
        g = local_rotation_grad(perturbed, W)
        # the target's factor 1 + delta_eta is exactly 1
        grad = (g[:-1] * one_plus_de[:-1]).sum(axis=0) + g[-1]
        return J, grad.ravel()


def relative_decrease(J_prev, J_next):
    """Left-hand side of the J-decrease termination test."""
    return (J_prev - J_next) / max(abs(J_prev), abs(J_next), 1.0)


def classify_termination(message, nit, max_iterations):
    """Map an L-BFGS-B status message onto the two tolerance conditions."""
    msg = message.decode() if isinstance(message, bytes) else str(message)
    msg = msg.upper()
    if "PGTOL" in msg or "PROJECTED GRADIENT" in msg:
        return TERM_TOL_GRADJ
    if "REDUCTION OF F" in msg or "FACTR" in msg:
        return TERM_TOL_J
    if "ITERATIONS" in msg or nit >= max_iterations:
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


def _lbfgs(obj, x0, config, d_weight=1.0):
    """One L-BFGS-B descent from x0."""
    evals = {}
    accepted = []

    def fun(x):
        J, g = obj.value_and_grad(x, d_weight)
        evals[x.tobytes()] = J
        return J, g

    def J_at(x):
        J = evals.get(x.tobytes())
        return obj.value(x, d_weight) if J is None else J

    bounds = None
    if config.bounds is not None:
        lo, hi = config.bounds
        bounds = [(lo, hi)] * np.asarray(x0).size
    res = scipy.optimize.minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        callback=lambda xk: accepted.append(J_at(xk)),
        options={
            "ftol": config.tol_J,
            "gtol": config.tol_gradJ,
            "maxiter": config.max_iterations,
            "maxcor": config.history_size,
        },
    )
    # L-BFGS-B evaluates its start point first.  After a line-search failure
    # SciPy returns the last accepted x with the J of its last trial point,
    # so J is read at x from the evaluations
    history = [next(iter(evals.values()))] + accepted
    return Descent(res.x, J_at(res.x), int(res.nit), res.message, history)


def _polish(obj, x0, config, log, d_weight=1.0):
    """Repeat descents, each from where the last one ended, until a round
    fails the relative-decrease test; appends every descent to ``log`` and
    returns the best."""
    x = np.asarray(x0, dtype=float)
    best = None
    for _ in range(config.polish_rounds):
        res = _lbfgs(obj, x, config, d_weight)
        log.append(res)
        if best is not None and relative_decrease(best.J, res.J) <= config.tol_J:
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
        scale = config.kick_scales[k % len(config.kick_scales)]
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


def write_solution(out, result):
    """Write ``result`` to ``out/solution_<kind>_N<NNN>.json`` and return the
    path.  The file is replaced atomically, so an interrupted write leaves
    the previous file intact."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    kind = result.config["noise"]["kind"]
    path = out / f"solution_{kind}_N{result.params.N:03d}.json"
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(result.to_dict(), indent=1, sort_keys=True))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def derived_seed(root_seed, *key):
    """64-bit seed derived deterministically from a root seed and a key path."""
    ss = np.random.SeedSequence(entropy=int(root_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def cascade_optimize(N_list, noise_config, optimizer_config, out=None,
                     progress=None):
    """Optimize each sequence length in ascending order, tiling earlier
    solutions of this call into the initial guesses of later ones.

    Each length gets a fresh ensemble whose seed is derived from the noise
    config's seed and N; all seeds are recorded in the results.  With an
    ``out`` directory each result is written there as soon as it is solved.
    Per-length failures are reported and skipped without aborting the
    cascade.
    """
    N_list = list(N_list)
    if any(a >= b for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be strictly ascending")
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
            obj = SequenceObjective(N, ensemble)
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
                termination_reason=classify_termination(
                    best.message, best.nit, optimizer_config.max_iterations
                ),
                config={
                    "optimizer": optimizer_config.to_dict(),
                    "noise": noise_config.to_dict(),
                },
                seeds={
                    "root_seed": int(noise_config.seed),
                    "ensemble_seed": ensemble_seed,
                    "search_seed": search_seed,
                },
                epsilon_uncorrected=obj.metrics(np.zeros(6 * N)).epsilon,
            )
        except Exception as exc:  # noqa: BLE001 - cascade must continue
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
