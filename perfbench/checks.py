"""Correctness checks of one benchmark round's outputs against ``reference``.

Every check returns a list of problems (empty when the outputs are right).
The noise coefficients are re-sampled through the package's sampler from the
seeds the outputs record; everything computed from them goes through the
independent reference.
"""

import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
from entseq.cli import noise_from_spec
from entseq.noise_model import make_ensemble

import reference

EPS_RTOL = 1e-9
# J_final and the reference eps + D are the same sum up to rounding of eps
# (relative 1e-12 at most) and D on realizations within rounding of a face of
# the polyhedron, where |d| itself is at the rounding level
J_ATOL = 1e-12
J_RTOL = 1e-9
# contour points checked against the reference: the grid's diagonal
CONTOUR_POINTS = ((0, 0), (1, 1), (2, 2))
# after a line-search failure L-BFGS-B returns the previous iterate as x but
# the last trial point's f, and the cascade stores that f as J_final
LINE_SEARCH_FAILURE = "line_search_failure"


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _variance_problems(label, realizations, sigma_nonlocal, sigma_local):
    """First-segment coefficients: channels and banks are independent, so the
    samples of all realizations are independent draws of variance sigma^2."""
    out = []
    for name, samples, sigma in (
        ("delta", np.stack([r.delta[0] for r in realizations]), sigma_nonlocal),
        ("delta_eta", np.stack([r.delta_eta[0] for r in realizations]), sigma_local),
    ):
        x = samples.ravel()
        if sigma == 0.0:
            if np.any(x != 0.0):
                out.append(f"{label}: {name} nonzero with sigma 0")
            continue
        ratio = np.mean(x * x) / sigma ** 2
        allowed = reference.variance_tolerance(x.size)
        if abs(ratio - 1.0) > allowed:
            out.append(f"{label}: {name} variance ratio {ratio:.4f} outside 1 +- {allowed:.4f}")
    return out


def check_cascade(opt_dir, doc, seed):
    """Solutions and summary CSV of one ``entseq optimize`` call.

    Returns (problems, stale): ``stale`` counts the solutions that ended on a
    line-search failure and whose J_final is not J at their angles.  That
    fault shows on some seeds only, so it is reported, not failed.
    """
    problems = []
    stale = 0
    noise_config = noise_from_spec(doc, seed)
    opt_dir = Path(opt_dir)
    M = int(doc["optimizer"]["ensemble_size"])
    with (opt_dir / "optimize_summary.csv").open() as fh:
        summary = {int(row["N"]): row for row in csv.DictReader(fh)}
    for N in doc["N_list"]:
        label = f"N={N}"
        path = opt_dir / f"solution_{noise_config.kind}_N{N:03d}.json"
        if not path.is_file():
            continue            # counted as a failed operation, not a wrong one
        sol = json.loads(path.read_text())
        if sol["seeds"]["ensemble_seed"] != reference.derived_seed(seed, N, 0):
            problems.append(f"{label}: ensemble seed is not derived from the root seed")
        ensemble = make_ensemble(noise_config, N, M, seed=sol["seeds"]["ensemble_seed"])
        problems += _variance_problems(label, ensemble, noise_config.sigma_nonlocal,
                                       noise_config.sigma_local)
        eps, D = reference.ensemble_terms(sol["angles"], N, ensemble)
        if _rel(sol["epsilon"], eps.mean()) > EPS_RTOL:
            problems.append(f"{label}: eps {sol['epsilon']!r} != reference {float(eps.mean())!r}")
        margin = reference.hull_margin(reference.sequence_gate(sol["angles"], N))
        if margin < 0.0:
            problems.append(f"{label}: noise-free gate is not a perfect entangler "
                            f"(hull margin {margin:.3e})")
        J = sol["J_final"]
        J_ref = float(np.mean(eps + D))
        J_problems = []
        if J < sol["epsilon"] * (1.0 - 1e-12):
            J_problems.append(f"{label}: J_final {J!r} < epsilon {sol['epsilon']!r}")
        if abs(J - J_ref) > J_ATOL + J_RTOL * J_ref:
            J_problems.append(f"{label}: J_final {J!r} != reference eps + D {J_ref!r}")
        if J_problems and sol["termination_reason"] == LINE_SEARCH_FAILURE:
            stale += 1
        else:
            problems += J_problems
        row = summary.get(N)
        if row is None:
            problems.append(f"{label}: missing from optimize_summary.csv")
            continue
        unc, _ = reference.ensemble_terms(np.zeros(6 * N), N, ensemble)
        if _rel(float(row["epsilon_uncorrected"]), unc.mean()) > EPS_RTOL:
            problems.append(f"{label}: epsilon_uncorrected {row['epsilon_uncorrected']} "
                            f"!= reference {float(unc.mean())!r}")
        if float(row["epsilon_optimized"]) != sol["epsilon"]:
            problems.append(f"{label}: summary eps differs from the solution file")
    return problems, stale


def check_contour(csv_path, solution_path, grid_doc, seed):
    """Contour CSV: axes, size, and the eps at CONTOUR_POINTS (i, j) on the
    grid point's derived seed."""
    problems = []
    noise_config = noise_from_spec(grid_doc, seed)
    grid = grid_doc["grid"]
    sig_loc = np.geomspace(*grid["sigma_local"][:2], int(grid["sigma_local"][2]))
    sig_nl = np.geomspace(*grid["sigma_nonlocal"][:2], int(grid["sigma_nonlocal"][2]))
    M = int(grid["M"])
    with Path(csv_path).open() as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != sig_loc.size * sig_nl.size:
        return [f"contour: {len(rows)} rows for a {sig_loc.size}x{sig_nl.size} grid"]
    sol = json.loads(Path(solution_path).read_text())
    N, angles = int(sol["N"]), sol["angles"]
    for i, j in CONTOUR_POINTS:
        row = rows[i * sig_nl.size + j]
        label = f"contour ({i},{j})"
        if float(row["sigma_local"]) != sig_loc[i] or float(row["sigma_nonlocal"]) != sig_nl[j]:
            problems.append(f"{label}: grid axes out of order")
            continue
        cfg = replace(noise_config, sigma_local=float(sig_loc[i]),
                      sigma_nonlocal=float(sig_nl[j]))
        ensemble = make_ensemble(cfg, N, M, seed=reference.derived_seed(seed, i, j))
        problems += _variance_problems(label, ensemble, cfg.sigma_nonlocal, cfg.sigma_local)
        eps, _ = reference.ensemble_terms(angles, N, ensemble)
        if _rel(float(row["epsilon"]), eps.mean()) > EPS_RTOL:
            problems.append(f"{label}: eps {row['epsilon']} != reference {float(eps.mean())!r}")
    return problems


def same_outputs(dir_a, dir_b):
    """Problems if two rounds' outputs differ; the summary CSV's wall-time
    column is the one field allowed to differ."""
    problems = []
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file())
    if names != names_b:
        return [f"output files differ: {names} vs {names_b}"]
    for name in names:
        a, b = (dir_a / name).read_bytes(), (dir_b / name).read_bytes()
        if name.name == "optimize_summary.csv":
            a, b = (b"\n".join(line.rsplit(b",", 1)[0] for line in x.splitlines())
                    for x in (a, b))
        if a != b:
            problems.append(f"{name} differs between the untraced and the traced round")
    return problems
