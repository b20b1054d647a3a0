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
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .noise_model import (ONE_OVER_F, SCHEMA_VERSION, NoiseConfig, fluctuator_weights, is_int,
                          is_real, make_ensemble)
from .optimizer import (OptimizerConfig, ascending_lengths, cascade_optimize, derived_seed,
                        write_atomic)
from .sequence_engine import (
    SequenceParams,
    calibrate_amplitude,
    evaluate_solution,
    target_gate,
    uncorrected_error,
)
from .weyl_geometry import (
    cartan_decompose,
    _kron_factor,
    makhlin_invariants,
    pe_fidelity,
    pe_functional_D,
    su2_pauli_vector,
)


class ConfigError(Exception):
    pass


@contextmanager
def _refused(what):
    """A record's TypeError or ValueError, its refusal of an input, as a configuration error."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _fmt(v):
    """Deterministic shortest-roundtrip float formatting for CSV cells."""
    return repr(float(v))


def _object(doc, what):
    """``doc`` if it is a JSON object; a configuration error otherwise."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def load_document(path, what):
    """The JSON object in the file at ``path``, refused when it names another
    schema version; ``what`` names the file in errors."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:   # ValueError: not JSON, or not text
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    if _object(doc, f"{what} {path}").get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(f"{what} {path} has an unsupported schema version")
    return doc


def _output_dir(out):
    """``out``, created as a directory when set; an OSError is a configuration error."""
    if out:
        try:
            Path(out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_report(payload, out, name):
    """``payload`` as JSON text, also written to ``out/name`` when ``out`` is set."""
    text = json.dumps(payload, indent=1, sort_keys=True)
    if out:
        write_atomic(Path(out, name), text)
    return text


def _record(cls, doc, key, **changes):
    """Block ``key`` of ``doc`` (the defaults when absent) as a ``cls`` record with ``changes``."""
    block = _object(doc.get(key, {}), f"{key} block")
    with _refused(f"{key} config"):
        return replace(cls.from_dict(block), **changes)


def noise_from_spec(doc, seed_override=None):
    """The noise block of ``doc``; a 1/f band is fitted here, so that an alpha
    it cannot reach is refused before anything runs."""
    seed = {} if seed_override is None else {"seed": seed_override}
    cfg = _record(NoiseConfig, doc, "noise", **seed)
    if cfg.kind == ONE_OVER_F:
        with _refused("noise config"):
            fluctuator_weights(cfg)
    return cfg


def load_solution(path):
    doc = load_document(path, "solution file")
    with _refused(f"solution file {path}"):
        return SequenceParams(_stored(doc, "N"), _stored(doc, "angles")), doc


def cmd_optimize(args):
    doc = load_document(args.config, "config file")
    noise = noise_from_spec(doc, args.seed)
    opt = _record(OptimizerConfig, doc, "optimizer")
    n_list = doc.get("N_list")
    if not n_list:
        raise ConfigError("optimize requires N_list in the experiment config")
    with _refused("N_list"):
        n_list = ascending_lengths(sorted(n_list))
    out = Path(_output_dir(args.out))

    def progress(msg):
        print(msg, flush=True)

    results = cascade_optimize(n_list, noise, opt, out=out, progress=progress)
    csv_path = write_atomic(out / "optimize_summary.csv", "".join(
        ["N,epsilon_uncorrected,epsilon_optimized,epsilon_pe,iterations,wall_time_s\n"]
        + [f"{res.params.N},{_fmt(res.epsilon_uncorrected)},{_fmt(res.final_metrics.epsilon)},"
           f"{_fmt(res.final_metrics.epsilon_pe)},{res.iterations},{res.wall_time_s:.3f}\n"
           for res in results]))
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
    axis = default if spec is None else spec
    if not (isinstance(axis, (list, tuple)) and len(axis) == 3 and all(map(is_real, axis[:2]))
            and is_int(axis[2]) and 0 < axis[0] <= axis[1] and axis[2] >= 1):
        raise ConfigError(
            f"grid.{name} must be [lo, hi, count] with 0 < lo <= hi and count >= 1, got {spec!r}")
    return np.geomspace(*axis)


def cmd_contour(args):
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    doc = load_document(args.config, "config file")
    noise = noise_from_spec(doc, args.seed)
    params, _ = load_solution(args.solution)
    grid = _object(doc.get("grid", {}), "grid")
    sig_loc = _grid_axis(grid, "sigma_local", (1e-3, 0.1, 5))
    sig_nl = _grid_axis(grid, "sigma_nonlocal", (1e-2, 0.4, 5))
    M = _count(grid, "M", 100)
    out = Path(_output_dir(args.out))

    points = [(i, j) for i in range(sig_loc.size) for j in range(sig_nl.size)]

    def eval_point(idx):
        i, j = idx
        cfg = replace(noise, sigma_local=float(sig_loc[i]), sigma_nonlocal=float(sig_nl[j]))
        ensemble = make_ensemble(cfg, params.N, M, seed=derived_seed(noise.seed, i, j))
        return evaluate_solution(params, ensemble).epsilon

    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        eps = list(pool.map(eval_point, points))

    csv_path = write_atomic(out / "contour.csv", "".join(
        ["sigma_local,sigma_nonlocal,epsilon\n"]
        + [f"{_fmt(sig_loc[i])},{_fmt(sig_nl[j])},{_fmt(e)}\n" for (i, j), e in zip(points, eps)]))
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
        doc = load_document(args.config, "config file")
        M = _count(doc, "M", 100)
    else:
        doc = _object(_stored(sol_doc, "config"), "solution config")
        M = _record(OptimizerConfig, doc, "optimizer").ensemble_size
    noise = noise_from_spec(doc, args.seed)
    sampled = noise
    if args.stored_seeds:
        with _refused("seeds.ensemble_seed"):
            sampled = replace(noise, seed=_stored(sol_doc, "seeds", "ensemble_seed"))
    _output_dir(args.out)
    metrics = evaluate_solution(params, make_ensemble(sampled, params.N, M))
    payload = {
        "N": params.N,
        "noise": noise.to_dict(),
        "M": M,
        "ensemble_seed": sampled.seed,
        **metrics.to_dict(),
    }
    print(_write_report(payload, args.out, "evaluation.json"))
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
    _output_dir(args.out)
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
    _write_report(report, args.out, "decomposition.json")
    return 0


def cmd_calibrate(args):
    doc = load_document(args.config, "config file") if args.config else {}
    noise = noise_from_spec(doc, args.seed)
    target = args.target if args.target is not None else doc.get("target_error", 0.1)
    N = _count(doc, "N", 4)
    M = _count(doc, "M", 200)
    _output_dir(args.out)
    try:
        with _refused("calibration"):
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
    print(_write_report(payload, args.out, "calibration.json"))
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
