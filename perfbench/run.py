"""Benchmark of the entseq cascade and contour commands.

Run from the root of a checkout:

    python3 perfbench/run.py --workload qs-cascade --seed 1 --seconds 30 --trace 0

One round of a workload is one ``entseq optimize`` call on the workload's
config followed by one ``entseq contour --threads 2`` call that sweeps the
cascade's longest solution over a 1/f noise grid, both under the round's
seed.  A run does one round per ``ROUND_SECONDS`` of ``--seconds``, at least
``MIN_ROUNDS``, each under its own seed derived from ``--seed``, so the work
of a run depends only on its arguments.  The program is timed from outside,
by timing calls into ``entseq.cli.main``; with ``--trace 1`` one untraced and
one traced round run instead, both under the first round's seed, the traced
round wraps the package's public functions (see ``tracer.py``) and the output
is the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

T_TOP = time.perf_counter()

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
INPUTS = BENCH / "inputs"
RUNS = BENCH / "_runs"

WORKLOADS = {
    "qs-cascade": "qs_cascade.json",
    "onef-cascade": "onef_cascade.json",
}
GRID = "onef_grid.json"
CONTOUR_THREADS = 2
# one round per ROUND_SECONDS of --seconds, and at least MIN_ROUNDS: the
# seed-to-seed spread of the search's work is averaged over the rounds
ROUND_SECONDS = 15
MIN_ROUNDS = 2
# an ensemble eps_PE at or below this marks a perfect entangler
PE_TARGET = 1e-8


def seconds_since_process_start():
    """Time from the process's start to now: the kernel's start stamp (clock
    ticks since boot) against CLOCK_BOOTTIME.  0 where either is missing."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        elapsed = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, AttributeError, ValueError, IndexError):
        return 0.0
    return elapsed if 0.0 <= elapsed < 60.0 else 0.0


PRE_TOP = seconds_since_process_start() - (time.perf_counter() - T_TOP)


def import_package():
    src = ROOT / "src"
    if not (src / "entseq" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {src}/entseq")
    sys.path.insert(0, str(src))
    import entseq.cli

    if Path(entseq.cli.__file__).resolve().parents[2] != ROOT:
        sys.exit(f"error: imported entseq from {entseq.cli.__file__}, not from {src}")
    return entseq


def run_cli(cli, argv, log):
    """``entseq.cli.main(argv)`` with its stdout sent to ``log``; returns
    (exit code, wall seconds, CPU seconds)."""
    with contextlib.redirect_stdout(log):
        c0 = time.process_time()
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    return rc, wall, cpu


class Round:
    """One optimize + contour round into ``out``.

    ``point_time`` (traced rounds only) returns the cumulative time of the
    per-point spans, read before and after the contour call.  With a
    ``calibration`` whose last phase ran just before the round, a phase runs
    after each call, and each call's wall time is also kept scaled to the
    reference speed by the phases on either side of it.
    """

    def __init__(self, cli, cfg_path, doc, grid_path, seed, out, point_time=None,
                 calibration=None):
        self.out = Path(out)
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.doc = doc
        self.seed = seed
        self.opt_dir = self.out / "outputs" / "optimize"
        self.contour_dir = self.out / "outputs" / "contour"
        self.solution = self.solution_for(max(doc["N_list"]))
        with (self.out / "entseq.log").open("w") as log:
            self.opt_rc, self.optimize_s, _ = run_cli(cli, [
                "optimize", "--config", str(cfg_path), "--out", str(self.opt_dir),
                "--seed", str(seed)], log)
            if calibration:
                calibration.measure()
            busy0 = point_time() if point_time else 0.0
            self.contour_rc, self.contour_s, self.contour_cpu_s = run_cli(cli, [
                "contour", "--config", str(grid_path), "--solution", str(self.solution),
                "--out", str(self.contour_dir), "--seed", str(seed),
                "--threads", str(CONTOUR_THREADS)], log)
            self.contour_busy_s = point_time() - busy0 if point_time else 0.0
            if calibration:
                calibration.measure()
                last = len(calibration.chunk_s) - 1
                self.optimize_scaled_s = self.optimize_s * calibration.factor(last - 2, last - 1)
                self.contour_scaled_s = self.contour_s * calibration.factor(last - 1, last)
        self.wall = self.optimize_s + self.contour_s

    def solution_for(self, N):
        return self.opt_dir / f"solution_{self.doc['noise']['kind']}_N{N:03d}.json"

    def solutions(self):
        """{N: solution document} of the lengths the cascade solved."""
        paths = {N: self.solution_for(N) for N in self.doc["N_list"]}
        return {N: json.loads(p.read_text()) for N, p in paths.items() if p.is_file()}

    def operations(self, n_points):
        """(attempted, failed): one operation per N and per grid point.

        N fails when the cascade wrote no solution for it; the grid points
        fail together when contour fails.  An ensemble eps_PE above
        PE_TARGET is not counted here, because it happens on some seeds only
        (see ``pe_misses``).
        """
        failed = len(set(self.doc["N_list"]) - set(self.solutions()))
        if self.contour_rc != 0 or not (self.contour_dir / "contour.csv").is_file():
            failed += n_points
        return len(self.doc["N_list"]) + n_points, failed

    def pe_misses(self):
        """Solved lengths whose ensemble eps_PE is above PE_TARGET."""
        return sum(1 for sol in self.solutions().values() if sol["epsilon_pe"] > PE_TARGET)


def round_seeds(seed, n):
    """The seeds of a run's n rounds, derived from its --seed."""
    import reference

    return [reference.derived_seed(seed, r) for r in range(n)]


def eps_geomean(rounds, N=None):
    """Geometric mean of the solved gate errors over all rounds and N, or
    over all rounds at the given N."""
    logs = [math.log(sol["epsilon"]) for rnd in rounds
            for n, sol in rnd.solutions().items() if N is None or n == N]
    return math.exp(sum(logs) / len(logs)) if logs else float("nan")


def verify(rnd, doc, grid_doc):
    """(problems, stale J_final count) of one round's outputs."""
    import checks

    problems, stale = checks.check_cascade(rnd.opt_dir, doc, rnd.seed)
    if rnd.solution.is_file() and rnd.contour_rc == 0:
        problems += checks.check_contour(rnd.contour_dir / "contour.csv", rnd.solution,
                                         grid_doc, rnd.seed)
    return problems, stale


def layer_metrics(tr, traced, plain, doc, stale):
    """Per-layer metrics of one traced round."""
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name in ("noise_model.make_ensemble", "noise_model.spectral_weight_exponent",
                 "sequence_engine.target_gate", "sequence_engine.ensemble_slices",
                 "sequence_engine.evaluate_solution", "gate_algebra.local_rotation",
                 "gate_algebra.expm_hermitian", "weyl_geometry.pe_functional_many",
                 "optimizer.value", "optimizer.value_and_grad"):
        put(f"{name}.calls", tr.calls[name], "count")
        put(f"{name}.s", tr.total[name], "s")
    for name in ("weyl_geometry.makhlin_invariants_many", "weyl_geometry.w1_indicator_s",
                 "weyl_geometry.pe_fidelity_many"):
        put(f"{name}.s", tr.total[name], "s")
    put("weyl_geometry.pe_functional_many.gates",
        tr.counts["weyl_geometry.pe_functional_many.gates"], "gates")
    put("optimizer.value.recomputed", tr.counts["optimizer.value.recomputed"], "count")
    for N in doc["N_list"]:
        vag_ms = 1e3 * tr.total[f"vag.N{N}"] / max(tr.counts[f"vag.calls.N{N}"], 1)
        value_ms = 1e3 * tr.total[f"value.N{N}"] / max(tr.counts[f"value.calls.N{N}"], 1)
        put(f"optimizer.value_and_grad.ms.N{N}", vag_ms, "ms")
        put(f"optimizer.grad_cost_ratio.N{N}", vag_ms / value_ms if value_ms else 0.0, "ratio")
        put(f"optimizer.search.descents.N{N}", tr.counts[f"optimizer.search.descents.N{N}"],
            "count")
    for key in ("descents", "nit", "nfev"):
        put(f"optimizer.lbfgs.{key}", tr.counts[f"optimizer.lbfgs.{key}"], "count")
    put("optimizer.search.pe_misses", traced.pe_misses(), "count")
    put("optimizer.search.stale_j_final", stale, "count")
    put("optimizer.search.eps_max_N", traced.solutions()[max(doc["N_list"])]["epsilon"], "1")
    put("optimizer.lbfgs.self_s", tr.self_time("optimizer.lbfgs"), "s")
    put("optimizer.search.self_s", tr.self_time("optimizer.search"), "s")
    put("cli.summary.s", tr.marks["optimize_end"] - tr.marks["search_end"], "s")
    put("cli.contour.busy_over_wall", traced.contour_busy_s / traced.contour_s, "ratio")
    put("cli.contour.cpu_over_wall", traced.contour_cpu_s / traced.contour_s, "ratio")
    put("trace.overhead", traced.wall / plain.wall - 1.0, "ratio")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # one BLAS thread: on 4x4 matrices OpenBLAS's extra threads add CPU time
    # (about 10 s per run) without making a run faster, and crowd the
    # contour's two threads; set before numpy is first imported
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    entseq = import_package()
    cfg_path = INPUTS / WORKLOADS[args.workload]
    grid_path = INPUTS / GRID
    doc = json.loads(cfg_path.read_text())
    grid_doc = json.loads(grid_path.read_text())
    n_points = grid_doc["grid"]["sigma_local"][2] * grid_doc["grid"]["sigma_nonlocal"][2]
    seeds = round_seeds(args.seed, max(MIN_ROUNDS, int(args.seconds // ROUND_SECONDS)))
    setup_raw_s = PRE_TOP + (time.perf_counter() - T_TOP)
    out = RUNS / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out, ignore_errors=True)

    if args.trace:
        from tracer import Tracer

        plain = Round(entseq.cli, cfg_path, doc, grid_path, seeds[0], out / "plain")
        tr = Tracer()
        tr.install()
        try:
            traced = Round(entseq.cli, cfg_path, doc, grid_path, seeds[0], out / "traced",
                           point_time=tr.point_time)
        finally:
            tr.uninstall()
        rounds = [traced]
    else:
        from calibrate import Calibration

        cal = Calibration()
        cal.measure()
        setup_s = setup_raw_s * cal.factor(0)
        rounds = [Round(entseq.cli, cfg_path, doc, grid_path, s, out / f"round{r}",
                        calibration=cal)
                  for r, s in enumerate(seeds)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"unscaled: setup_s {setup_raw_s:.4f}, optimize_s "
              f"{[round(r.optimize_s, 3) for r in rounds]}, contour_s "
              f"{[round(r.contour_s, 3) for r in rounds]}; reference speed over measured "
              f"{[round(cal.factor(i), 4) for i in range(len(cal.chunk_s))]}; "
              f"calibration took {cal.spent_s:.2f} s", file=sys.stderr)

    attempted = failed = stale = 0
    problems = []
    for r, rnd in enumerate(rounds):
        a, f = rnd.operations(n_points)
        attempted += a
        failed += f
        p, st = verify(rnd, doc, grid_doc)
        problems += [f"round {r}: {x}" for x in p]
        stale += st
    if args.trace:
        import checks

        problems += checks.same_outputs(plain.out / "outputs", traced.out / "outputs")
        metrics = layer_metrics(tr, traced, plain, doc, stale)
        (out / "trace.json").write_text(json.dumps(
            {"calls": tr.calls, "total_s": tr.total, "child_s": tr.child,
             "counts": tr.counts}, indent=1, sort_keys=True))
    else:
        gates = n_points * grid_doc["grid"]["M"]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "optimize_s": {"value": statistics.median(r.optimize_scaled_s for r in rounds),
                           "unit": "s"},
            "contour_gates_per_s": {
                "value": statistics.median(gates / r.contour_scaled_s for r in rounds),
                "unit": "gates/s"},
            "eps_geomean": {"value": eps_geomean(rounds), "unit": "1"},
            "eps_max_N": {"value": eps_geomean(rounds, max(doc["N_list"])), "unit": "1"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if stale:
        print(f"note: {stale} solution(s) ended on a line-search failure with a J_final "
              "that is not J at their angles", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
