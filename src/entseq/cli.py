"""Command-line interface: experiment orchestration, persistence, and reports.

Commands
--------
optimize    cascade-optimize a list of sequence lengths, write per-length
            solution JSON files and a summary CSV
contour     evaluate a stored solution on a log-spaced grid of local/nonlocal
            noise amplitudes, write a CSV of (sigma_local, sigma_nonlocal, eps)
evaluate    re-evaluate a stored solution under an arbitrary noise config
decompose   print the Cartan decomposition report of a stored solution
calibrate   bisect the nonlocal amplitude to a target uncorrected error

All randomness flows from a single root seed (``--seed`` overrides the config
seed) which is recorded in every output artifact.  Reruns with the same seed
reproduce all results bit-for-bit; the only non-reproducible output field is
the wall_time_s column of the optimize summary CSV.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical failure.
"""

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .noise_model import NoiseConfig, calibrate_amplitude, is_int, make_ensemble
from .optimizer import OptimizerConfig, cascade_optimize, derived_seed
from .sequence_engine import SequenceParams, evaluate_solution, target_gate, uncorrected_error
from .weyl_geometry import (
    cartan_decompose,
    _kron_factor,
    makhlin_invariants,
    pe_fidelity,
    pe_functional_D,
    su2_pauli_vector,
)

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


def _fmt(v):
    """Deterministic shortest-roundtrip float formatting for CSV cells."""
    return repr(float(v))


def load_spec(path):
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if doc.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError("unsupported experiment schema version")
    return doc


def noise_from_spec(doc, seed_override=None):
    try:
        cfg = NoiseConfig.from_dict(doc.get("noise", {})) if doc.get("noise") else NoiseConfig()
        if seed_override is not None:
            cfg = cfg.with_seed(seed_override)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad noise config: {exc}") from exc
    return cfg


def optimizer_from_spec(doc):
    try:
        return (
            OptimizerConfig.from_dict(doc["optimizer"])
            if doc.get("optimizer")
            else OptimizerConfig()
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad optimizer config: {exc}") from exc


def load_solution(path):
    try:
        doc = json.loads(Path(path).read_text())
        params = SequenceParams(int(doc["N"]), np.asarray(doc["angles"], dtype=float))
    except FileNotFoundError as exc:
        raise ConfigError(f"solution file not found: {path}") from exc
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad solution file {path}: {exc}") from exc
    return params, doc


def cmd_optimize(args):
    doc = load_spec(args.config)
    noise = noise_from_spec(doc, args.seed)
    opt = optimizer_from_spec(doc)
    n_list = doc.get("N_list")
    if not n_list:
        raise ConfigError("optimize requires N_list in the experiment config")
    if not (isinstance(n_list, list) and all(is_int(N) and N >= 1 for N in n_list)
            and len(set(n_list)) == len(n_list)):
        raise ConfigError(f"N_list must be a list of distinct positive integers, got {n_list!r}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def progress(msg):
        print(msg, flush=True)

    results = cascade_optimize(sorted(n_list), noise, opt, out=out, progress=progress)
    csv_path = out / "optimize_summary.csv"
    with csv_path.open("w") as fh:
        fh.write("N,epsilon_uncorrected,epsilon_optimized,epsilon_pe,iterations,wall_time_s\n")
        for res in results:
            m = res.final_metrics
            fh.write(f"{res.params.N},{_fmt(res.epsilon_uncorrected)},{_fmt(m.epsilon)},"
                     f"{_fmt(m.epsilon_pe)},{res.iterations},{res.wall_time_s:.3f}\n")
    print(f"wrote {csv_path} and {len(results)} solution files to {out}")
    if len(results) != len(n_list):
        return 2
    return 0


def _count(doc, key, default):
    v = doc.get(key, default)
    if not (is_int(v) and v >= 1):
        raise ConfigError(f"{key} must be an integer >= 1, got {v!r}")
    return v


def _grid_axis(grid, name, default):
    spec = grid.get(name)
    try:
        lo, hi, n = spec if spec is not None else default
        ok = 0 < lo <= hi < np.inf and is_int(n) and n >= 1
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(
            f"grid.{name} must be [lo, hi, count] with 0 < lo <= hi and count >= 1, got {spec!r}")
    return np.geomspace(lo, hi, n)


def cmd_contour(args):
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    doc = load_spec(args.config)
    noise = noise_from_spec(doc, args.seed)
    params, _ = load_solution(args.solution)
    grid = doc.get("grid", {})
    sig_loc = _grid_axis(grid, "sigma_local", (1e-3, 0.1, 5))
    sig_nl = _grid_axis(grid, "sigma_nonlocal", (1e-2, 0.4, 5))
    M = _count(grid, "M", 100)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    points = [(i, j) for i in range(sig_loc.size) for j in range(sig_nl.size)]

    def eval_point(idx):
        i, j = idx
        cfg = replace(noise, sigma_local=float(sig_loc[i]), sigma_nonlocal=float(sig_nl[j]))
        ensemble = make_ensemble(cfg, params.N, M, seed=derived_seed(noise.seed, i, j))
        return evaluate_solution(params, ensemble).epsilon

    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        eps = list(pool.map(eval_point, points))

    csv_path = out / "contour.csv"
    with csv_path.open("w") as fh:
        fh.write("sigma_local,sigma_nonlocal,epsilon\n")
        for (i, j), e in zip(points, eps):
            fh.write(f"{_fmt(sig_loc[i])},{_fmt(sig_nl[j])},{_fmt(e)}\n")
    print(f"wrote {csv_path}")
    return 0


def _stored(sol_doc, *keys):
    """A field of a solution file, read along ``keys``."""
    v = sol_doc
    try:
        for key in keys:
            v = v[key]
    except (KeyError, TypeError):
        raise ConfigError(f"solution file has no {'.'.join(keys)}") from None
    return v


def cmd_evaluate(args):
    params, sol_doc = load_solution(args.solution)
    if args.config:
        doc = load_spec(args.config)
        noise = noise_from_spec(doc, args.seed)
        M = _count(doc, "M", 100)
    else:
        noise = noise_from_spec(_stored(sol_doc, "config"), args.seed)
        M = _count(_stored(sol_doc, "config", "optimizer"), "ensemble_size", None)
    seed = _stored(sol_doc, "seeds", "ensemble_seed") if args.stored_seeds else noise.seed
    ensemble = make_ensemble(noise, params.N, M, seed=seed)
    metrics = evaluate_solution(params, ensemble)
    payload = {
        "N": params.N,
        "noise": noise.to_dict(),
        "M": M,
        "ensemble_seed": seed,
        **metrics.to_dict(),
    }
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "evaluation.json").write_text(text)
    print(text)
    return 0


def _pauli_vector_line(k):
    a, b, resid = _kron_factor(k)
    na = su2_pauli_vector(a)
    nb = su2_pauli_vector(b)

    def one(n):
        return f"exp[-i({n[0]:+.3f} X {n[1]:+.3f} Y {n[2]:+.3f} Z)]"

    return f"{one(na)} (x) {one(nb)}", resid


def cmd_decompose(args):
    params, _ = load_solution(args.solution)
    U = target_gate(params)
    try:
        k1, c, k2 = cartan_decompose(U)
    except RuntimeError as exc:
        print(f"decomposition failed: {exc}", file=sys.stderr)
        return 2
    g = makhlin_invariants(U)
    line1, r1 = _pauli_vector_line(k1)
    line2, r2 = _pauli_vector_line(k2)
    report = {
        "N": params.N,
        "weyl_coordinates": [float(v) for v in c],
        "makhlin_invariants": [float(v) for v in g],
        "pe_fidelity": pe_fidelity(U),
        "pe_functional_D": pe_functional_D(U),
        "k1_pauli_vectors": line1,
        "k2_pauli_vectors": line2,
        "kron_residuals": [float(r1), float(r2)],
    }
    print(f"U = k1 exp[-i/2 ({c[0]:.3f} XX + {c[1]:.3f} YY + {c[2]:.3f} ZZ)] k2")
    print(f"k1 = {line1}")
    print(f"k2 = {line2}")
    print(f"Makhlin invariants: g1={g[0]:+.6f} g2={g[1]:+.6f} g3={g[2]:+.6f}")
    print(f"F_PE = {report['pe_fidelity']:.9f}   D = {report['pe_functional_D']:.3e}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "decomposition.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    return 0


def cmd_calibrate(args):
    doc = load_spec(args.config) if args.config else {}
    noise = noise_from_spec(doc, args.seed)
    target = args.target if args.target is not None else float(doc.get("target_error", 0.1))
    if not 0 < target < 0.5:
        raise ConfigError("target error must lie in (0, 0.5)")
    N = _count(doc, "N", 4)
    M = _count(doc, "M", 200)
    try:
        sigma = calibrate_amplitude(target, noise, N, M)
    except RuntimeError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return 2
    eps = uncorrected_error(replace(noise, sigma_nonlocal=sigma), N, M)
    payload = {
        "target_uncorrected_error": target,
        "calibrated_sigma_nonlocal": sigma,
        "achieved_uncorrected_error": eps,
        "mc_rel_std_estimate": 1.0 / np.sqrt(M),
        "N": N,
        "M": M,
        "seed": noise.seed,
        "kind": noise.kind,
    }
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "calibration.json").write_text(text)
    print(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error (exit 1), not argparse's exit 2,
    which would read as a numerical failure."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    p = _Parser(prog="entseq", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def output(sp, default):
        sp.add_argument("--out", default=default,
                        help="output directory" if default else
                        "output directory (reports go to stdout when omitted)")

    def common(sp, config_required=True, out_default="out"):
        sp.add_argument("--config", required=config_required, help="experiment spec JSON")
        sp.add_argument("--seed", type=int, default=None, help="override the root seed")
        output(sp, out_default)

    sp = sub.add_parser("optimize", help="cascade-optimize sequence lengths")
    common(sp)
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("contour", help="noise-strength grid sweep of a solution")
    common(sp)
    sp.add_argument("--solution", required=True)
    sp.add_argument("--threads", type=int, default=1,
                    help="worker threads (performance only; results invariant)")
    sp.set_defaults(func=cmd_contour)

    sp = sub.add_parser("evaluate", help="evaluate a solution under a noise config")
    common(sp, config_required=False, out_default=None)
    sp.add_argument("--solution", required=True)
    sp.add_argument("--stored-seeds", action="store_true",
                    help="reuse the ensemble seed recorded in the solution file")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("decompose", help="Cartan-decomposition report of a solution")
    output(sp, None)
    sp.add_argument("--solution", required=True)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("calibrate", help="calibrate sigma_nonlocal to a target error")
    common(sp, config_required=False, out_default=None)
    sp.add_argument("--target", type=float, default=None,
                    help="target uncorrected error in (0, 0.5)")
    sp.set_defaults(func=cmd_calibrate)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
