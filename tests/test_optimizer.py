import json
from pathlib import Path

from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from entseq import optimizer
from entseq.noise_model import NoiseConfig, ONE_OVER_F, make_ensemble
from entseq.optimizer import (
    PE_J_MARGIN,
    PE_TARGET,
    Descent,
    OptimizerConfig,
    SequenceObjective,
    TERM_LINE_SEARCH,
    TERM_MAX_ITER,
    TERM_TOL_GRADJ,
    TERM_TOL_J,
    _lbfgs,
    _search,
    cascade_optimize,
    classify_termination,
    derived_seed,
    initialize_guess,
    relative_decrease,
    write_solution,
)
from entseq.sequence_engine import SequenceParams, evaluate_solution, gate_error
from entseq.weyl_geometry import pe_functional_many

from oracles import any_value

QS = NoiseConfig(seed=11)
BENCH_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"
FAST = OptimizerConfig(ensemble_size=20, polish_rounds=2, n_kicks=2)


def test_objective_trivials():
    # zero noise, identity rotations: perfect fidelity but locally trivial
    # target, so J equals the identity-class PE distance of 2
    cfg = replace(QS, sigma_nonlocal=0.0)
    ensemble = make_ensemble(cfg, 2, 3)
    J = SequenceObjective(ensemble).value(np.zeros(12))
    assert J == pytest.approx(2.0, abs=1e-9)


def test_objective_zero_for_perfect_entangler():
    # a sequence realizing a CNOT-equivalent in the noise-free case
    cfg = replace(QS, sigma_nonlocal=0.0)
    ensemble = make_ensemble(cfg, 2, 1)
    x = np.zeros(12)
    x[7] = np.pi / 2   # beta1 of segment 2
    x[10] = np.pi / 2  # beta2 of segment 2
    obj = SequenceObjective(ensemble)
    J = obj.value(x)
    U, O = obj.gates(x)
    eps, D = float(np.mean(gate_error(U, O))), float(np.mean(pe_functional_many(U)))
    assert eps == pytest.approx(0.0, abs=1e-12)
    assert J == pytest.approx(D, abs=1e-12)


def test_objective_nonnegative_random():
    rng = np.random.default_rng(1)
    obj = SequenceObjective(make_ensemble(QS, 2, 8))
    for _ in range(200):
        J = obj.value(rng.uniform(-8, 8, 12))
        assert J >= 0.0


def test_objective_length_from_its_ensemble():
    # the tracer keys its per-length metrics by obj.N
    assert SequenceObjective(make_ensemble(QS, 3, 2)).N == 3


def test_objective_bit_identical_on_frozen_ensemble():
    ensemble = make_ensemble(QS, 3, 10)
    x = np.random.default_rng(2).uniform(-2, 2, 18)
    a = SequenceObjective(ensemble).value(x)
    b = SequenceObjective(ensemble).value(x)
    assert a == b


def central_gradient(obj, x, d_weight=1.0, h=1e-6):
    g = np.empty(x.size)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (obj.value(xp, d_weight) - obj.value(xm, d_weight)) / (2 * h)
    return g


def test_gradient_matches_naive_fd():
    # the second input has local noise, N = 4 and the PE weight of the last
    # repair round, with D nonzero on some members
    cases = [(QS, 2, 6, 3, 1.0, 1.0), (replace(QS, sigma_local=0.01), 4, 12, 9, 2.0, 16.0)]
    for cfg, N, M, seed, span, d_weight in cases:
        obj = SequenceObjective(make_ensemble(cfg, N, M))
        x = np.random.default_rng(seed).uniform(-span, span, 6 * N)
        J, g = obj.value_and_grad(x, d_weight)
        assert J == obj.value(x, d_weight)
        assert np.allclose(g, central_gradient(obj, x, d_weight), rtol=1e-6, atol=1e-9)
    D = pe_functional_many(obj.gates(x)[0])
    assert 0 < np.count_nonzero(D) < D.size


def test_gradient_forward_vs_central():
    # D is nonzero on 1 of the 10 members here, so both sides of its kink
    # enter the gradient
    ensemble = make_ensemble(QS, 2, 10)
    rng = np.random.default_rng(4)
    x = rng.uniform(-2, 2, 12)
    obj = SequenceObjective(ensemble)
    D = pe_functional_many(obj.gates(x)[0])
    assert 0 < np.count_nonzero(D) < D.size
    g = obj.value_and_grad(x)[1]
    g_cen = central_gradient(obj, x)
    scale = max(np.abs(g_cen).max(), 1e-12)
    assert np.abs(g - g_cen).max() / scale < 1e-6


def test_gradient_synthetic_quadratic():
    # sanity harness: the same L-BFGS-B driver on sum(x_i^2)
    res = scipy.optimize.minimize(
        lambda x: (np.sum(x**2), 2 * x),
        np.full(12, 0.7),
        jac=True,
        method="L-BFGS-B",
        options={"ftol": 1e-14, "gtol": 1e-12},
    )
    assert np.abs(res.x).max() < 1e-8


@pytest.mark.parametrize("bad", [
    {"tol_J": float("nan")},
    {"tol_gradJ": 0.0},
    {"tol_J": float("inf")},
    {"ensemble_size": 0},
    {"history_size": 0},
    {"max_iterations": 0},
    {"polish_rounds": 0},
    {"n_kicks": -1},
    {"kick_scales": ()},
    {"kick_scales": (0.1, float("nan"))},
    {"kick_scales": (0.1, 0.0)},
    {"ensemble_size": 2.5},
    {"history_size": 10.0},
    {"max_iterations": 1.5},
    {"polish_rounds": 2.5},
    {"n_kicks": 2.5},
    {"tol_J": True},
    {"kick_scales": (True,)},
])
def test_config_validation(bad):
    # a count out of range is refused by the record, and a retired key at
    # another value than its constant by from_dict
    with pytest.raises(ValueError):
        OptimizerConfig.from_dict(bad)
    OptimizerConfig(n_kicks=0)  # an edge value that is fine


@st.composite
def optimizer_configs(draw):
    return OptimizerConfig(
        ensemble_size=draw(st.integers(1, 10**6)),
        polish_rounds=draw(st.integers(1, 100)),
        n_kicks=draw(st.integers(0, 1000)),
    )


@settings(deadline=None)
@given(optimizer_configs())
def test_config_dict_json_round_trip(config):
    assert OptimizerConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


@settings(deadline=None)
@given(st.sampled_from([f.name for f in fields(OptimizerConfig)]), any_value)
def test_config_field_values_raise_only_value_or_type_errors(name, value):
    # any value in any one field: a config that round-trips, or a ValueError
    # or TypeError, never another exception
    try:
        config = OptimizerConfig(**{name: value})
    except (ValueError, TypeError):
        return
    assert OptimizerConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


# each key that left the config records, the value it is fixed at, and
# values that ask for something else: another number, another JSON type
RETIRED = [
    (OptimizerConfig, "bounds", None, [[-1.0, 1.0], [], 0.0, False]),
    (OptimizerConfig, "tol_J", 2.2e-6, [1e-8, True, "2.2e-6"]),
    (OptimizerConfig, "tol_gradJ", 2.2e-6, [2.2e-5, True, None]),
    (OptimizerConfig, "max_iterations", 15000, [5, 15000.0, True]),
    (OptimizerConfig, "history_size", 10, [20, 10.0, True]),
    (OptimizerConfig, "kick_scales", [0.02, 0.05, 0.15],
     [[0.02, 0.05], [0.02, 0.05, 0.15, 0.3], [], True]),
    (NoiseConfig, "gate_time_T", 1.0, [2.0, 1, True, None]),
]


@pytest.mark.parametrize("record, key, fixed, others", RETIRED, ids=[r[1] for r in RETIRED])
def test_config_from_dict_retired_keys(record, key, fixed, others):
    # documents written while the key was a setting hold it at its fixed
    # value and still load; any other value would change what runs, so it is
    # refused with the key named
    d = record().to_dict()
    assert key not in d
    assert record.from_dict(json.loads(json.dumps({**d, key: fixed}))) == record()
    for value in others:
        with pytest.raises(ValueError, match=key):
            record.from_dict({**d, key: value})


def test_config_from_dict_drops_legacy_fd_step():
    # configs and solution files written with the forward-difference
    # gradient carry its step size, and the benchmark inputs also carry the
    # retired keys at their fixed values
    d = OptimizerConfig(n_kicks=3).to_dict()
    assert "fd_step" not in d
    assert OptimizerConfig.from_dict({**d, "fd_step": 1e-7}) == OptimizerConfig(n_kicks=3)
    for name in ("qs_cascade.json", "onef_cascade.json"):
        doc = json.loads((BENCH_INPUTS / name).read_text())
        assert "fd_step" in doc["optimizer"]
        assert OptimizerConfig.from_dict(doc["optimizer"]).to_dict() == {
            k: v for k, v in doc["optimizer"].items() if k in d}


def test_relative_decrease_formula():
    assert relative_decrease(2.0, 1.0) == pytest.approx(0.5)
    assert relative_decrease(0.5, 0.25) == pytest.approx(0.25)  # denominator 1
    assert relative_decrease(-3.0, -3.0) == 0.0


def test_classify_termination_scripted():
    assert classify_termination(
        "CONVERGENCE: REL_REDUCTION_OF_F_<=_FACTR*EPSMCH", 10
    ) == TERM_TOL_J
    assert classify_termination(
        "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH", 10
    ) == TERM_TOL_J
    assert classify_termination(
        b"CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL", 10
    ) == TERM_TOL_GRADJ
    assert classify_termination(
        "STOP: TOTAL NO. of ITERATIONS REACHED LIMIT", 100
    ) == TERM_MAX_ITER
    assert classify_termination("ABNORMAL", optimizer.MAX_ITERATIONS) == TERM_MAX_ITER
    assert classify_termination("ABNORMAL", optimizer.MAX_ITERATIONS - 1) == TERM_LINE_SEARCH


def test_minimize_noise_free_reaches_perfect_entangler():
    cfg = replace(QS, sigma_nonlocal=0.0)
    ensemble = make_ensemble(cfg, 2, 1)
    # identity init sits on a symmetry point of the noise-free landscape;
    # a deterministic offset is enough for the descent test
    x0 = np.full(12, 0.3)
    obj = SequenceObjective(ensemble)
    res = _lbfgs(obj, x0)
    assert res.J <= obj.value(x0)
    assert res.history[0] >= res.history[-1]
    assert classify_termination(res.message, res.nit) in (
        TERM_TOL_J, TERM_TOL_GRADJ)
    metrics = obj.metrics(res.x)
    assert metrics.epsilon == pytest.approx(0.0, abs=1e-10)
    assert metrics.epsilon_pe <= 1e-8


def test_minimize_history_matches_objective(monkeypatch):
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 5)
    ensemble = make_ensemble(QS, 2, 10)
    obj = SequenceObjective(ensemble)
    res = _lbfgs(obj, np.full(12, 0.2))
    assert res.nit <= 5
    assert res.history[0] == pytest.approx(
        SequenceObjective(ensemble).value(np.full(12, 0.2))
    )
    assert res.J <= res.history[0]


class BiasedGradient(SequenceObjective):
    """The objective with a small fixed error in its gradient, which makes
    the line search fail near a minimum."""

    def value_and_grad(self, x, d_weight=1.0):
        J, g = super().value_and_grad(x, d_weight)
        return J, g + 1e-2


def test_lbfgs_J_is_value_at_returned_x():
    # after a line-search failure SciPy's res.fun is the J of the last trial
    # point, not of res.x
    ensemble = make_ensemble(replace(QS, seed=0), 2, 10)
    obj = BiasedGradient(ensemble)
    x = np.random.default_rng(0).uniform(-2, 2, 12)
    reasons = []
    for _ in range(4):
        res = _lbfgs(obj, x)
        assert res.J == obj.value(res.x)
        reasons.append(classify_termination(res.message, res.nit))
        x = res.x
    assert TERM_LINE_SEARCH in reasons


def test_polish_reuses_known_start_values(monkeypatch):
    ensemble = make_ensemble(QS, 2, 10)
    config = OptimizerConfig(ensemble_size=10, polish_rounds=4)
    obj = SequenceObjective(ensemble)
    x0 = np.random.default_rng(6).uniform(-2, 2, 12)
    value = obj.value
    evaluated = []

    def counted_value(x, d_weight=1.0):
        evaluated.append(x.copy())
        return value(x, d_weight)

    monkeypatch.setattr(obj, "value", counted_value)
    log = []
    best = optimizer._polish(obj, x0, config, log)
    assert len(log) > 1 and any(best is res for res in log)
    # each round starts where the previous one ended, and J there is read
    # from the round's own first evaluation
    starts = [x0] + [res.x for res in log[:-1]]
    assert all(res.history[0] == value(x) for res, x in zip(log, starts))
    assert evaluated == []


CLEAN, DIRTY = PE_TARGET, 10.0 * PE_TARGET


def scripted_search(monkeypatch, script):
    """``_search`` from one init on scripted descents.  ``script[k]`` is
    ``(J, eps_PE, value)`` of the k-th descent the search runs (``value`` is
    its J under the true objective); descent k ends at the point filled
    with k.  Returns the selected descent, the ``(start, d_weight)`` of each
    descent, start -1 for the init, and the d_weight of each ``value`` call."""
    descents, values = [], []

    def polish(obj, x0, config, log, d_weight=1.0):
        k = len(descents)
        descents.append((round(float(x0[0])), d_weight))
        log.append(Descent(np.full(6, float(k)), script[k][0], 1, "", [script[k][0]]))
        return log[-1]

    class Scripted:
        def epsilon_pe(self, x):
            return script[int(x[0])][1]

        def value(self, x, d_weight=1.0):
            values.append(d_weight)
            return script[int(x[0])][2]

    monkeypatch.setattr(optimizer, "_polish", polish)
    config = OptimizerConfig(ensemble_size=1, polish_rounds=1, n_kicks=0)
    best = _search(Scripted(), [np.full(6, -1.0)], config, np.random.default_rng(0), [])
    return best, descents, values


def test_search_prefers_a_clean_candidate_within_the_margin(monkeypatch):
    # the clean candidate's J sits on the margin: it beats the lower J, and
    # no repair descent runs
    best, descents, values = scripted_search(
        monkeypatch, [(1.0, DIRTY, None), (PE_J_MARGIN, CLEAN, None)])
    assert best.x[0] == 1 and best.J == PE_J_MARGIN
    assert descents == [(-1, 1.0), (-1, 1.0)] and values == []


def test_search_takes_the_lowest_J_past_the_margin(monkeypatch):
    # no clean candidate within the margin: every repair weight runs, each
    # pushed from the lowest-J descent and re-polished from its end point,
    # and the lowest J is selected
    repairs = [(5.0, DIRTY, 2.0), (1.5, DIRTY, None)] * 3
    best, descents, values = scripted_search(
        monkeypatch, [(1.0, DIRTY, None), (PE_J_MARGIN + 0.01, CLEAN, None)] + repairs)
    assert best.x[0] == 0 and best.J == 1.0
    assert descents == [(-1, 1.0), (-1, 1.0),
                        (0, 4.0), (2, 1.0), (0, 16.0), (4, 1.0), (0, 64.0), (6, 1.0)]
    assert values == [1.0, 1.0, 1.0]


def test_search_repair_stops_at_the_first_clean_selection(monkeypatch):
    # the weight-16 push ends clean: its J is replaced by J under the true
    # objective (PE_J_MARGIN, not the pushed descent's 5.0), which selects it
    # over the re-polish after it, so the weight-64 push never runs
    best, descents, values = scripted_search(monkeypatch, [
        (1.0, DIRTY, None), (2.0, DIRTY, None),
        (5.0, DIRTY, 1.5), (1.5, DIRTY, None),
        (5.0, CLEAN, PE_J_MARGIN), (1.0, DIRTY, None)])
    assert best.x[0] == 4 and best.J == PE_J_MARGIN
    assert [w for _, w in descents] == [1.0, 1.0, 4.0, 1.0, 16.0, 1.0]
    assert values == [1.0, 1.0]


def test_initialize_guess_tiling_rules():
    solved = {}
    p2 = SequenceParams(2, np.arange(12.0))
    solved[2] = p2
    g4 = initialize_guess(4, solved)
    assert np.array_equal(g4.angles.reshape(4, 6)[:2], p2.angles.reshape(2, 6))
    assert np.array_equal(g4.angles.reshape(4, 6)[2:], p2.angles.reshape(2, 6))
    # prime length: identity rotations
    assert not initialize_guess(7, solved).angles.any()
    # composite but largest divisor not solved: identity fallback
    assert not initialize_guess(6, solved).angles.any()
    # greatest divisor is preferred
    p6 = SequenceParams(6, np.arange(36.0))
    solved[6] = p6
    g12 = initialize_guess(12, solved)
    assert np.array_equal(g12.angles[:36], p6.angles)


def test_derived_seed_stability():
    assert derived_seed(123, 4, 0) == derived_seed(123, 4, 0)
    assert derived_seed(123, 4, 0) != derived_seed(123, 4, 1)
    assert derived_seed(123, 4, 0) != derived_seed(124, 4, 0)


@pytest.mark.slow
def test_cascade_reproducible_and_descending():
    cfg = replace(QS, seed=31)
    results = cascade_optimize([2, 4], cfg, FAST)
    assert [r.params.N for r in results] == [2, 4]
    for r in results:
        assert r.J_history[0] >= r.J_final
        assert r.termination_reason in (TERM_TOL_J, TERM_TOL_GRADJ)
    again = cascade_optimize([2, 4], cfg, FAST)
    for a, b in zip(results, again):
        assert np.array_equal(a.params.angles, b.params.angles)
        assert a.J_final == b.J_final
        assert a.seeds == b.seeds
    for N_list in ([4, 2], [2, 2], [0, 1], [1.5], [2, 4.0]):
        with pytest.raises(ValueError, match="strictly ascending"):
            cascade_optimize(N_list, cfg, FAST)


@pytest.mark.slow
def test_cascade_generalizes_to_fresh_ensemble():
    cfg = replace(QS, seed=41)
    config = OptimizerConfig(ensemble_size=100, polish_rounds=3, n_kicks=4)
    (result,) = cascade_optimize([4], cfg, config)
    fresh = make_ensemble(cfg, 4, 100, seed=999_999)
    eps_fresh = evaluate_solution(result.params, fresh).epsilon
    eps_train = result.final_metrics.epsilon
    assert abs(eps_fresh - eps_train) / eps_train < 0.5


def test_write_solution_round_trip(tmp_path):
    cfg = replace(QS, seed=51)
    results = cascade_optimize([2], cfg, FAST, out=tmp_path)
    path = tmp_path / "solution_quasistatic_N002.json"
    assert path.exists()
    assert write_solution(tmp_path, results[0]) == path
    doc = json.loads(path.read_text())
    assert doc["N"] == 2
    assert doc["seeds"]["root_seed"] == 51
    reloaded = SequenceParams(doc["N"], np.asarray(doc["angles"]))
    assert np.array_equal(reloaded.angles, results[0].params.angles)


def test_write_solution_is_atomic(tmp_path, monkeypatch):
    cfg = replace(QS, seed=51)
    (result,) = cascade_optimize([2], cfg, FAST, out=tmp_path)
    path = tmp_path / "solution_quasistatic_N002.json"
    before = path.read_bytes()
    assert before == json.dumps(result.to_dict(), indent=1, sort_keys=True).encode()

    def crash_midway(self, text, *args, **kwargs):
        with open(self, "w") as fh:
            fh.write(text[: len(text) // 2])
        raise OSError("disk full")

    moved = replace(result, params=SequenceParams(2, result.params.angles + 1.0))
    monkeypatch.setattr(type(path), "write_text", crash_midway)
    with pytest.raises(OSError):
        write_solution(tmp_path, moved)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_one_over_f_objective_gradient():
    cfg = NoiseConfig(
        kind=ONE_OVER_F, sigma_nonlocal=0.2, sigma_local=0.006, seed=61
    )
    ensemble = make_ensemble(cfg, 2, 5)
    x = np.random.default_rng(7).uniform(-1, 1, 12)
    obj = SequenceObjective(ensemble)
    J, g = obj.value_and_grad(x)
    assert J == obj.value(x)
    assert np.allclose(g, central_gradient(obj, x), rtol=1e-6, atol=1e-9)
