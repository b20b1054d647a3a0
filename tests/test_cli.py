import json
from pathlib import Path

import numpy as np
import pytest

from entseq import noise_model
from entseq.cli import main
from entseq.noise_model import NoiseConfig
from entseq.optimizer import OptimizerConfig


def small_spec(seed=7, n_list=(2,)):
    return {
        "schema_version": 1,
        "noise": NoiseConfig(seed=seed).to_dict(),
        "optimizer": OptimizerConfig(
            ensemble_size=15, polish_rounds=2, n_kicks=2
        ).to_dict(),
        "N_list": list(n_list),
    }


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def run(args):
    return main(args)


def read_csv_without_walltime(path):
    lines = path.read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


def test_optimize_writes_solution_and_csv(tmp_path, capsys):
    cfg = write_spec(tmp_path, small_spec())
    out = tmp_path / "out"
    assert run(["optimize", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "optimize_summary.csv").exists()
    sol = out / "solution_quasistatic_N002.json"
    assert sol.exists()
    doc = json.loads(sol.read_text())
    assert doc["N"] == 2 and len(doc["angles"]) == 12
    header = (out / "optimize_summary.csv").read_text().splitlines()[0]
    assert header == "N,epsilon_uncorrected,epsilon_optimized,epsilon_pe,iterations,wall_time_s"


def test_optimize_determinism_bytes(tmp_path):
    cfg = write_spec(tmp_path, small_spec())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["optimize", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["optimize", "--config", cfg, "--out", str(out2)]) == 0
    s1 = (out1 / "solution_quasistatic_N002.json").read_bytes()
    s2 = (out2 / "solution_quasistatic_N002.json").read_bytes()
    assert s1 == s2
    # CSV is byte-identical apart from the wall_time_s column
    assert read_csv_without_walltime(out1 / "optimize_summary.csv") == \
        read_csv_without_walltime(out2 / "optimize_summary.csv")


def test_seed_flag_changes_results(tmp_path):
    cfg = write_spec(tmp_path, small_spec())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["optimize", "--config", cfg, "--out", str(out1), "--seed", "1"]) == 0
    assert run(["optimize", "--config", cfg, "--out", str(out2), "--seed", "2"]) == 0
    a = json.loads((out1 / "solution_quasistatic_N002.json").read_text())
    b = json.loads((out2 / "solution_quasistatic_N002.json").read_text())
    assert a["angles"] != b["angles"]


@pytest.fixture(scope="module")
def solution_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("solutions")
    cfg = write_spec(tmp, small_spec())
    out = tmp / "out"
    assert run(["optimize", "--config", cfg, "--out", str(out)]) == 0
    return out


def test_evaluate_stored_seeds_reproduce_metrics(solution_dir, tmp_path, capsys):
    sol = solution_dir / "solution_quasistatic_N002.json"
    assert run(["evaluate", "--solution", str(sol), "--stored-seeds"]) == 0
    payload = json.loads(capsys.readouterr().out)
    stored = json.loads(sol.read_text())
    assert payload["epsilon"] == pytest.approx(stored["epsilon"], abs=1e-15)
    assert payload["epsilon_pe"] == pytest.approx(stored["epsilon_pe"], abs=1e-15)


def test_evaluate_zero_noise_override(solution_dir, tmp_path, capsys):
    sol = solution_dir / "solution_quasistatic_N002.json"
    from dataclasses import replace

    override = {
        "schema_version": 1,
        "noise": NoiseConfig(sigma_nonlocal=0.0, seed=3).to_dict(),
        "M": 10,
    }
    cfg = write_spec(tmp_path, override, "override.json")
    assert run(["evaluate", "--solution", str(sol), "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["epsilon"] == pytest.approx(0.0, abs=1e-12)


def test_evaluate_determinism(solution_dir, capsys):
    sol = solution_dir / "solution_quasistatic_N002.json"
    assert run(["evaluate", "--solution", str(sol), "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert run(["evaluate", "--solution", str(sol), "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


def test_decompose_cnot_synthetic(tmp_path, capsys):
    # inject a synthetic two-segment solution realizing a CNOT equivalent
    x = np.zeros(12)
    x[10] = np.pi / 2
    doc = {
        "N": 2,
        "angles": x.tolist(),
        "config": {"noise": NoiseConfig().to_dict(),
                   "optimizer": OptimizerConfig().to_dict()},
        "seeds": {"ensemble_seed": 1},
    }
    sol = tmp_path / "cnot.json"
    sol.write_text(json.dumps(doc))
    assert run(["decompose", "--solution", str(sol), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    report = json.loads((tmp_path / "decomposition.json").read_text())
    assert report["pe_fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert report["pe_functional_D"] == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(report["weyl_coordinates"], [np.pi / 2, 0, 0], atol=1e-8)
    assert "F_PE" in out


def test_decompose_identity_solution(tmp_path, capsys):
    doc = {
        "N": 1,
        "angles": [0.0] * 6,
        "config": {"noise": NoiseConfig().to_dict(),
                   "optimizer": OptimizerConfig().to_dict()},
        "seeds": {"ensemble_seed": 1},
    }
    sol = tmp_path / "ident.json"
    sol.write_text(json.dumps(doc))
    assert run(["decompose", "--solution", str(sol), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "decomposition.json").read_text())
    assert report["pe_fidelity"] == pytest.approx(np.cos(np.pi / 8) ** 2, abs=1e-9)
    assert report["pe_functional_D"] == pytest.approx(2.0, abs=1e-9)


def test_contour_csv(solution_dir, tmp_path):
    sol = solution_dir / "solution_quasistatic_N002.json"
    spec = {
        "schema_version": 1,
        "noise": NoiseConfig(seed=7).to_dict(),
        "grid": {"sigma_local": [1e-3, 1e-2, 2], "sigma_nonlocal": [0.05, 0.2, 2], "M": 10},
    }
    cfg = write_spec(tmp_path, spec, "grid.json")
    out = tmp_path / "out"
    assert run(["contour", "--config", cfg, "--solution", str(sol), "--out", str(out)]) == 0
    lines = (out / "contour.csv").read_text().splitlines()
    assert lines[0] == "sigma_local,sigma_nonlocal,epsilon"
    assert len(lines) == 5
    # threaded rerun must give identical bytes
    out2 = tmp_path / "out2"
    assert run(["contour", "--config", cfg, "--solution", str(sol), "--out", str(out2),
                "--threads", "4"]) == 0
    assert (out / "contour.csv").read_bytes() == (out2 / "contour.csv").read_bytes()


def test_contour_one_over_f_threads_byte_identical(solution_dir, tmp_path):
    # every grid point samples its 1/f ensemble from its own substreams
    sol = solution_dir / "solution_quasistatic_N002.json"
    spec = {
        "schema_version": 1,
        "noise": NoiseConfig(kind="one_over_f", seed=7).to_dict(),
        "grid": {"sigma_local": [1e-3, 1e-2, 2], "sigma_nonlocal": [0.05, 0.2, 2], "M": 10},
    }
    cfg = write_spec(tmp_path, spec, "onef_grid.json")
    csv = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        assert run(["contour", "--config", cfg, "--solution", str(sol), "--out", str(out),
                    "--threads", threads]) == 0
        csv.append((out / "contour.csv").read_bytes())
    assert csv[0] == csv[1]
    assert len(csv[0].splitlines()) == 5


def test_optimize_noise_free_steers_to_perfect_entangler(tmp_path, capsys):
    spec = small_spec()
    spec["noise"]["sigma_nonlocal"] = 0.0
    cfg = write_spec(tmp_path, spec, "nofree.json")
    out = tmp_path / "out"
    assert run(["optimize", "--config", cfg, "--out", str(out)]) == 0
    row = (out / "optimize_summary.csv").read_text().splitlines()[1].split(",")
    eps_opt, eps_pe = float(row[2]), float(row[3])
    assert eps_opt == pytest.approx(0.0, abs=1e-10)
    assert eps_pe <= 1e-8
    # the decomposition of that solution reports a perfect entangler
    sol = out / "solution_quasistatic_N002.json"
    assert run(["decompose", "--solution", str(sol), "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "decomposition.json").read_text())
    assert report["pe_fidelity"] == pytest.approx(1.0, abs=1e-8)


def test_contour_monotone_in_nonlocal_sigma(solution_dir, tmp_path):
    sol = solution_dir / "solution_quasistatic_N002.json"
    spec = {
        "schema_version": 1,
        "noise": NoiseConfig(seed=19).to_dict(),
        "grid": {"sigma_local": [1e-4, 1e-4, 1], "sigma_nonlocal": [0.02, 0.3, 3], "M": 60},
    }
    cfg = write_spec(tmp_path, spec, "mono.json")
    out = tmp_path / "mono"
    assert run(["contour", "--config", cfg, "--solution", str(sol), "--out", str(out)]) == 0
    rows = [l.split(",") for l in (out / "contour.csv").read_text().splitlines()[1:]]
    eps = [float(r[2]) for r in rows]
    assert eps[0] < eps[1] < eps[2]


def test_calibrate_command(tmp_path, capsys):
    spec = {
        "schema_version": 1,
        "noise": NoiseConfig(seed=13).to_dict(),
        "N": 4,
        "M": 100,
    }
    cfg = write_spec(tmp_path, spec, "cal.json")
    assert run(["calibrate", "--config", cfg, "--target", "0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["achieved_uncorrected_error"] - 0.1) <= 0.005
    assert payload["calibrated_sigma_nonlocal"] > 0.1


def test_config_errors_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run(["optimize", "--config", missing, "--out", str(tmp_path)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["optimize", "--config", str(bad), "--out", str(tmp_path)]) == 1
    spec = small_spec()
    del spec["N_list"]
    cfg = write_spec(tmp_path, spec, "nolist.json")
    assert run(["optimize", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert run(["evaluate", "--solution", missing]) == 1
    # rejected when the config is built, with an error line: not as a failed
    # cascade (exit 2) and not as a traceback
    noise, opt = small_spec()["noise"], small_spec()["optimizer"]
    for i, edit in enumerate([
            {"noise": {**noise, "sigma_nonlocal": float("nan")}},
            {"optimizer": {**opt, "kick_scales": []}},
            {"noise": {**noise, "channels": [[4, 1]]}},
            {"noise": {**noise, "channels": [[1, 1], [1, 1]]}},
            {"noise": {**noise, "kind": "one_over_f", "n_fluctuators": 2.5}},
            {"noise": {**noise, "seed": -3}},
            {"optimizer": {**opt, "ensemble_size": 2.5}},
            {"N_list": [0, 2]},
            {"N_list": [2.5]},
            {"N_list": [-2]},
            {"N_list": [2, 2]},
            # a block is a JSON object, an index an integer, a number not a bool
            {"noise": [["seed", 3]]},
            {"optimizer": [["n_kicks", 2]]},
            {"noise": 0},
            {"noise": {**noise, "channels": [[1.9, 2]]}},
            {"noise": {**noise, "sigma_nonlocal": True}},
            {"optimizer": {**opt, "tol_J": True}},
            # every descent is unconstrained; a box is refused, not ignored
            {"optimizer": {**opt, "bounds": [-1.0, 1.0]}},
            # the default band cannot reach this 1/f exponent
            {"noise": {**noise, "kind": "one_over_f", "alpha": 2.0}},
            {"N_list": ["a", 2]}]):
        cfg = write_spec(tmp_path, {**small_spec(), **edit}, f"bad_{i}.json")
        capsys.readouterr()
        assert run(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert "FAILED" not in captured.out
        assert captured.err.startswith("error:")
    # each was refused before --out was made
    assert not (tmp_path / "o").exists()
    good = write_spec(tmp_path, small_spec(), "good.json")
    assert run(["optimize", "--config", good, "--seed", "-3", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    sol = tmp_path / "ident.json"
    sol.write_text(json.dumps({"N": 1, "angles": [0.0] * 6}))
    grid_spec = {"schema_version": 1, "noise": NoiseConfig().to_dict(), "grid": {"M": 2}}
    grid = write_spec(tmp_path, grid_spec, "grid.json")
    assert run(["evaluate", "--config", grid, "--solution", str(sol), "--seed", "-3"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    # a bare solution file carries no noise config and no seeds to reuse
    assert run(["evaluate", "--solution", str(sol)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert run(["evaluate", "--config", grid, "--solution", str(sol), "--stored-seeds"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    for cmd, key in (("evaluate", "M"), ("calibrate", "N"), ("calibrate", "M")):
        cfg = write_spec(tmp_path, {**grid_spec, key: 0}, f"bad_{cmd}_{key}.json")
        args = ["--solution", str(sol)] if cmd == "evaluate" else []
        assert run([cmd, "--config", cfg, *args]) == 1
        assert capsys.readouterr().err.startswith("error:")
    # contour needs at least one worker thread, one member and nonempty axes
    out = tmp_path / "contour"
    assert run(["contour", "--config", grid, "--solution", str(sol), "--out", str(out),
                "--threads", "0"]) == 1
    assert "--threads" in capsys.readouterr().err
    for i, bad in enumerate([{"M": 0}, {"M": 2, "sigma_local": [0.01, 0.1, 0]},
                             {"M": 2, "sigma_nonlocal": [0.1, 0.01, 2]},
                             {"M": 2, "sigma_nonlocal": [0.0, 0.1, 2]},
                             {"M": 2, "sigma_local": [True, True, 2]}]):
        cfg = write_spec(tmp_path, {**grid_spec, "grid": bad}, f"bad_grid_{i}.json")
        assert run(["contour", "--config", cfg, "--solution", str(sol), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
    assert not (out / "contour.csv").exists()
    # malformed documents: an error line, not a traceback
    array_cfg = write_spec(tmp_path, [1, 2], "array.json")
    bad_grid = write_spec(tmp_path, {**grid_spec, "grid": [1]}, "list_grid.json")
    stored = {"N": 1, "angles": [0.0] * 6,
              "config": {"noise": NoiseConfig().to_dict(),
                         "optimizer": OptimizerConfig(ensemble_size=2).to_dict()}}
    solutions = {name: write_spec(tmp_path, doc, f"sol_{name}.json") for name, doc in [
        ("seed_neg", {**stored, "seeds": {"ensemble_seed": -4}}),
        ("seed_str", {**stored, "seeds": {"ensemble_seed": "x"}}),
        ("config_list", {**stored, "config": [1, 2]}),
        ("top_list", [stored]),
        ("N_float", {**stored, "N": 1.9}),
        ("N_bool", {**stored, "N": True})]}
    argvs = [["optimize", "--config", array_cfg, "--out", str(tmp_path / "o")],
             ["contour", "--config", bad_grid, "--solution", str(sol), "--out", str(out)]]
    for i, target in enumerate(["abc", None]):
        cfg = write_spec(tmp_path, {**grid_spec, "target_error": target}, f"target_{i}.json")
        argvs.append(["calibrate", "--config", cfg])
    # calibrate_amplitude owns the (0, 0.5) target rule; its refusal is exit 1
    for target in ("0", "0.5", "nan", "true"):
        argvs.append(["calibrate", "--target", target])
    for name in ("seed_neg", "seed_str"):
        argvs.append(["evaluate", "--solution", solutions[name], "--stored-seeds"])
    argvs.append(["evaluate", "--solution", solutions["config_list"]])
    for name in ("top_list", "N_float", "N_bool"):
        argvs.append(["evaluate", "--solution", solutions[name]])
        argvs.append(["decompose", "--solution", solutions[name]])
    # an --out that cannot be made a directory is refused before anything runs
    taken = tmp_path / "taken"
    taken.write_text("")
    good_sol = write_spec(tmp_path, stored, "sol_good.json")
    argvs += [["optimize", "--config", good, "--out", str(taken)],
              ["contour", "--config", grid, "--solution", good_sol, "--out", str(taken)],
              ["evaluate", "--solution", good_sol, "--out", str(taken)],
              ["decompose", "--solution", good_sol, "--out", str(taken / "sub")],
              ["calibrate", "--config", grid, "--out", str(taken)]]
    for argv in argvs:
        assert run(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error:"), argv
    assert taken.read_text() == ""


def test_calibrate_unreachable_target_is_a_numerical_failure(tmp_path, capsys):
    # ZZ noise alone gives the error E[sin^2 delta] <= (1 - e^-8) / 2 for any
    # amplitude up to CALIBRATION_MAX_SIGMA, so 0.4999 cannot be bracketed
    spec = {"schema_version": 1, "noise": NoiseConfig(channels=[[3, 3]], seed=13).to_dict(),
            "N": 2, "M": 200}
    cfg = write_spec(tmp_path, spec, "zz.json")
    out = tmp_path / "cal"
    assert run(["calibrate", "--config", cfg, "--target", "0.4999", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("calibration failed")
    assert captured.out == ""
    assert list(out.iterdir()) == []


def test_failed_write_keeps_previous_outputs(solution_dir, tmp_path, monkeypatch):
    # a write that fails part-way leaves the previous contour CSV and report
    # whole, and no temporary file behind
    sol = str(solution_dir / "solution_quasistatic_N002.json")
    spec = {"schema_version": 1, "noise": NoiseConfig(seed=7).to_dict(),
            "grid": {"sigma_local": [1e-3, 1e-3, 1], "sigma_nonlocal": [0.05, 0.2, 2], "M": 5},
            "M": 5}
    cfg = write_spec(tmp_path, spec, "grid.json")
    out = tmp_path / "out"
    argvs = [["contour", "--config", cfg, "--solution", sol, "--out", str(out)],
             ["evaluate", "--config", cfg, "--solution", sol, "--out", str(out)]]
    for argv in argvs:
        assert run(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["contour.csv", "evaluation.json"]

    class HalfWriter:
        """A file opened for writing that takes half of the first text, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError("disk full")

    open_path = Path.open

    def open_failing_writes(self, mode="r", *args, **kwargs):
        fh = open_path(self, mode, *args, **kwargs)
        return HalfWriter(fh) if "w" in mode else fh

    # another seed, so that each output would change
    moved = write_spec(tmp_path, {**spec, "noise": NoiseConfig(seed=8).to_dict()}, "moved.json")
    monkeypatch.setattr(Path, "open", open_failing_writes)
    for argv in argvs:
        argv[2] = moved
        with pytest.raises(OSError, match="disk full"):
            run(argv)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_threads_only_on_contour():
    from entseq.cli import build_parser

    assert main(["optimize", "--config", "c.json", "--threads", "2"]) == 1
    args = build_parser().parse_args(["contour", "--config", "c.json", "--solution", "s.json",
                                      "--threads", "2"])
    assert args.threads == 2


@pytest.mark.parametrize("argv", [
    ["optimize", "--config", "c.json", "--seed", "abc"],      # bad int value
    ["optimize", "--config", "c.json", "--frobnicate"],       # unknown flag
    ["contour", "--config", "c.json"],                        # missing --solution
    [],                                                       # missing command
    ["decompose", "--solution", "s.json", "--config", "c.json", "--seed", "5"],
], ids=["bad-int", "unknown-flag", "missing-flag", "no-command", "decompose-config"])
def test_usage_errors_exit_1(argv, capsys):
    # exit 2 is reserved for numerical failures
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: entseq")
    assert len(err.splitlines()) == 1


def test_help_exits_0(capsys):
    for argv in (["--help"], ["optimize", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: entseq" in capsys.readouterr().out


def test_optimize_ignores_stale_solutions_in_out(tmp_path):
    # an N = 2 file from another seed in --out must not seed the N = 4 search
    stale = tmp_path / "stale"
    assert run(["optimize", "--config", write_spec(tmp_path, small_spec(seed=8), "s8.json"),
                "--out", str(stale)]) == 0
    assert (stale / "solution_quasistatic_N002.json").exists()
    cfg = write_spec(tmp_path, small_spec(n_list=(4,)), "n4.json")
    fresh = tmp_path / "fresh"
    assert run(["optimize", "--config", cfg, "--out", str(fresh)]) == 0
    assert run(["optimize", "--config", cfg, "--out", str(stale)]) == 0
    name = "solution_quasistatic_N004.json"
    assert (stale / name).read_bytes() == (fresh / name).read_bytes()
    assert read_csv_without_walltime(stale / "optimize_summary.csv") == \
        read_csv_without_walltime(fresh / "optimize_summary.csv")


def _make_ensemble_failing_at_N4(exc):
    make_ensemble = noise_model.make_ensemble

    def make(config, N, M, seed=None):
        if N == 4:
            raise exc
        return make_ensemble(config, N, M, seed=seed)

    return make


def test_optimize_reports_only_numerical_failures(tmp_path, capsys, monkeypatch):
    # a numerical failure at one length is reported and the cascade goes on
    cfg = write_spec(tmp_path, small_spec(n_list=(2, 4)))
    out = tmp_path / "out"
    monkeypatch.setattr(noise_model, "make_ensemble", _make_ensemble_failing_at_N4(
        np.linalg.LinAlgError("eigenvalues did not converge")))
    assert run(["optimize", "--config", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("N=2: J=")
    assert lines[1] == "N=4: FAILED (eigenvalues did not converge)"
    assert (out / "solution_quasistatic_N002.json").exists()
    assert not (out / "solution_quasistatic_N004.json").exists()
    # a programming error is not a numerical failure
    monkeypatch.setattr(noise_model, "make_ensemble",
                        _make_ensemble_failing_at_N4(TypeError("not a numerical failure")))
    with pytest.raises(TypeError):
        run(["optimize", "--config", cfg, "--out", str(tmp_path / "o2")])
