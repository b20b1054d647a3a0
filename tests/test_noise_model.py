import numpy as np
import pytest
from dataclasses import replace
from scipy import stats

from entseq.noise_model import (
    ALL_CHANNELS,
    NoiseConfig,
    ONE_OVER_F,
    QUASISTATIC,
    TWO_LOCAL_CHANNELS,
    calibrate_amplitude,
    estimate_local_fidelity,
    fit_spectral_exponent,
    fluctuator_rates,
    fluctuator_weights,
    make_ensemble,
    rtn_value,
    RtnTrace,
    sample_noise_trace,
    sample_one_over_f,
    sample_quasistatic,
    sample_rtn_trace,
    spectral_weight_exponent,
)
from entseq.sequence_engine import SequenceParams, ensemble_gates, ensemble_slices, target_gate

QS = NoiseConfig(kind=QUASISTATIC, sigma_nonlocal=0.13, sigma_local=0.01, seed=1)
OF = NoiseConfig(kind=ONE_OVER_F, sigma_nonlocal=0.2, sigma_local=0.006, seed=1)


def test_channel_sets():
    assert len(TWO_LOCAL_CHANNELS) == 9
    assert len(ALL_CHANNELS) == 15
    assert (0, 0) not in ALL_CHANNELS


def test_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(kind="pink")
    with pytest.raises(ValueError):
        NoiseConfig(sigma_nonlocal=-0.1)
    with pytest.raises(ValueError):
        NoiseConfig(kind=ONE_OVER_F, nu_min=5.0, nu_max=1.0)
    with pytest.raises(ValueError):
        NoiseConfig(channels=((0, 0),))
    for bad in ({"sigma_nonlocal": np.nan}, {"sigma_local": np.inf}, {"gate_time_T": 0.0},
                {"gate_time_T": np.nan}, {"alpha": np.nan}, {"nu_min": 0.0},
                {"nu_max": np.inf}, {"n_fluctuators": 0}, {"n_fluctuators": 2.5},
                {"seed": -3}, {"seed": 2.5}, {"channels": ((4, 1),)},
                {"channels": ((1, -1),)}):
        for kind in (QUASISTATIC, ONE_OVER_F):
            with pytest.raises(ValueError):
                NoiseConfig(kind=kind, **bad)


def test_config_json_round_trip():
    s = OF.to_json()
    assert NoiseConfig.from_json(s) == OF


def test_quasistatic_zero_amplitude():
    cfg = replace(QS, sigma_nonlocal=0.0, sigma_local=0.0)
    real = sample_quasistatic(cfg, 4, np.random.default_rng(0))
    assert not real.delta.any()
    assert not real.delta_eta.any()


def test_quasistatic_sample_std():
    rng = np.random.default_rng(2)
    cfg = replace(QS, sigma_local=0.0)
    draws = np.concatenate(
        [sample_quasistatic(cfg, 1, rng).delta[0] for _ in range(100_000 // 9)]
    )
    assert 0.128 <= draws.std() <= 0.132


def test_quasistatic_constant_across_segments():
    real = sample_quasistatic(QS, 8, np.random.default_rng(3))
    assert np.array_equal(real.delta, np.tile(real.delta[0], (8, 1)))


def test_determinism_same_seed():
    a = make_ensemble(QS, 4, 6)
    b = make_ensemble(QS, 4, 6)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.delta, rb.delta)
        assert np.array_equal(ra.delta_eta, rb.delta_eta)


def test_substreams_are_order_independent():
    from entseq.noise_model import realization_rng, sample_realization

    direct = sample_realization(QS, 4, realization_rng(QS.seed, 3))
    ensemble = make_ensemble(QS, 4, 6)
    assert np.array_equal(direct.delta, ensemble[3].delta)


def test_rtn_value_examples():
    trace = RtnTrace(np.array([]), 1, 0.5, 10.0)
    assert rtn_value(trace, 5.0) == 1.0
    trace = RtnTrace(np.array([1.0]), 1, 0.5, 10.0)
    assert rtn_value(trace, 2.0) == -1.0
    assert rtn_value(trace, 0.5) == 1.0
    with pytest.raises(ValueError):
        rtn_value(trace, 11.0)


def test_rtn_time_average_near_zero():
    rng = np.random.default_rng(4)
    trace = sample_rtn_trace(1.0, 5000.0, rng)
    t = np.linspace(0, 5000.0, 40_000)
    vals = rtn_value(trace, t)
    # effective sample count ~ duration * switch rate
    n_eff = 5000.0 * 2.0
    assert abs(vals.mean()) < 3.0 / np.sqrt(n_eff)


def test_rtn_gaps_exponential_ks():
    rng = np.random.default_rng(5)
    nu = 0.8
    trace = sample_rtn_trace(nu, 100_000.0 / (2 * nu), rng)
    gaps = np.diff(np.r_[0.0, trace.switch_times])[:100_000]
    assert gaps.size >= 100_000 * 0.9
    stat = stats.kstest(gaps, "expon", args=(0, 1.0 / (2 * nu)))
    assert stat.pvalue > 0.01


def test_one_over_f_zero_amplitude():
    cfg = replace(OF, sigma_nonlocal=0.0, sigma_local=0.0)
    real = sample_one_over_f(cfg, 4, np.random.default_rng(0))
    assert not real.delta.any()


def test_one_over_f_sample_std():
    rng = np.random.default_rng(6)
    vals = np.concatenate(
        [sample_one_over_f(OF, 2, rng).delta.ravel() for _ in range(600)]
    )
    assert 0.19 <= vals.std() <= 0.21


def test_one_over_f_stationary_mean():
    rng = np.random.default_rng(7)
    vals = np.concatenate(
        [sample_one_over_f(OF, 2, rng).delta.ravel() for _ in range(400)]
    )
    assert abs(vals.mean()) < 3.0 * 0.2 / np.sqrt(vals.size)


def test_weights_unit_variance_and_exponent():
    w = fluctuator_weights(OF)
    assert (w**2).sum() == pytest.approx(1.0, abs=1e-12)
    # fitted once per spectral band: shared and read-only across configs
    # that differ elsewhere
    assert fluctuator_weights(replace(OF, sigma_nonlocal=0.5, seed=9)) is w
    assert not w.flags.writeable
    beta = spectral_weight_exponent(OF)
    # calibrated exponent exceeds the continuum rule 1 - alpha = 0.3
    assert 0.4 < beta < 1.0
    assert fluctuator_rates(OF)[0] == pytest.approx(OF.nu_min)
    assert fluctuator_rates(OF)[-1] == pytest.approx(OF.nu_max)


@pytest.mark.slow
def test_periodogram_exponent():
    rng = np.random.default_rng(8)
    _, x = sample_noise_trace(OF, duration=6000.0, sample_rate=100.0, rng=rng)
    alpha_hat = fit_spectral_exponent(x, 100.0, (OF.nu_min, OF.nu_max))
    assert abs(alpha_hat - OF.alpha) <= 0.15


def test_perturb_angles():
    # the kernel applies eta -> eta * (1 + delta_eta) to U only; with no
    # slice noise U is the target of the perturbed angles
    real = sample_quasistatic(replace(QS, sigma_nonlocal=0.0), 2, np.random.default_rng(9))
    angles = np.arange(12.0)

    def gates(x):
        U, O = ensemble_gates(x, *ensemble_slices([real]))
        return U[0], O

    U, O = gates(angles)
    perturbed = angles * (1.0 + real.delta_eta.ravel())
    assert np.allclose(U, target_gate(SequenceParams(2, perturbed)), atol=1e-12)
    assert np.array_equal(O, target_gate(SequenceParams(2, angles)))
    assert not np.allclose(U, O, atol=1e-6)
    real.delta_eta[:] = 0.0
    U, O = gates(angles)
    assert np.array_equal(U, O)
    real.delta_eta[:] = 0.01
    U, _ = gates(np.full(12, np.pi / 2))
    assert np.allclose(U, target_gate(SequenceParams(2, np.full(12, 0.505 * np.pi))),
                       atol=1e-12)


def test_local_fidelity_trivial_and_monotone():
    rng = np.random.default_rng(10)
    assert estimate_local_fidelity(0.0, 10, 10, rng) == pytest.approx(1.0, abs=1e-14)
    f1 = estimate_local_fidelity(0.01, 200, 200, np.random.default_rng(11))
    f2 = estimate_local_fidelity(0.02, 200, 200, np.random.default_rng(11))
    assert f2 < f1
    # measured mean for sigma=0.01 with angles uniform in [-4pi, 4pi]; the
    # first-order estimate is 1 - 8 pi^2 sigma^2 = 0.99211
    assert f1 == pytest.approx(0.9921, abs=0.001)


def test_calibrate_amplitude():
    cfg = replace(QS, sigma_local=0.0, seed=21)
    assert calibrate_amplitude(0.0, cfg, 4, 50) == 0.0
    sigma = calibrate_amplitude(0.10, cfg, 4, 200)
    from entseq.sequence_engine import uncorrected_error

    eps = uncorrected_error(replace(cfg, sigma_nonlocal=sigma), 4, 200)
    assert abs(eps - 0.10) <= 0.005
    sig_lo = calibrate_amplitude(0.05, cfg, 4, 100)
    sig_hi = calibrate_amplitude(0.20, cfg, 4, 100)
    assert sig_lo < sigma < sig_hi
    with pytest.raises(ValueError):
        calibrate_amplitude(0.7, cfg, 4, 10)
