import numpy as np
import pytest
from dataclasses import replace

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
    sample_noise_trace,
    sample_one_over_f,
    sample_quasistatic,
    spectral_weight_exponent,
    telegraph_bank,
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


def test_config_from_dict_default_channels():
    # a noise block without channels means the default two-local set
    assert NoiseConfig.from_dict({"kind": "one_over_f"}) == NoiseConfig(kind="one_over_f")


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

    for cfg in (QS, OF):
        direct = sample_realization(cfg, 4, realization_rng(cfg.seed, 3))
        ensemble = make_ensemble(cfg, 4, 6)
        assert np.array_equal(direct.delta, ensemble[3].delta)
        assert np.array_equal(direct.delta_eta, ensemble[3].delta_eta)
        # an ensemble's members do not depend on how many members follow
        assert np.array_equal(make_ensemble(cfg, 4, 4)[3].delta, ensemble[3].delta)


def one_fluctuator(nu):
    return NoiseConfig(kind=ONE_OVER_F, sigma_nonlocal=1.0, n_fluctuators=1,
                       nu_min=nu, nu_max=2.0 * nu)


def flip_probability(nu, dt):
    return -0.5 * np.expm1(-4.0 * nu * dt)


def test_telegraph_autocovariance_matches_lorentzian_sum():
    # the bank's autocovariance is sum_f w_f^2 exp(-4 nu_f dt); the bound is
    # four Bartlett standard errors of the lag-k sample autocovariance
    cfg = replace(OF, sigma_nonlocal=1.0)
    rate = 10.0
    _, x = sample_noise_trace(cfg, duration=20_000.0, sample_rate=rate,
                              rng=np.random.default_rng(12))
    w2, nu = fluctuator_weights(cfg) ** 2, fluctuator_rates(cfg)

    def cov(k):
        return (w2 * np.exp(-4.0 * nu * np.abs(k)[..., None] / rate)).sum(-1)

    j = np.arange(-2000, 2001)
    for k in (1, 3, 10):
        sample = np.mean(x[:-k] * x[k:])
        se = np.sqrt((cov(j) ** 2 + cov(j + k) * cov(j - k)).sum() / x.size)
        assert abs(sample - cov(k)) <= 4.0 * se, (k, sample, cov(k), se)


def test_telegraph_flip_frequency():
    nu = 0.8
    cfg = one_fluctuator(nu)
    assert fluctuator_rates(cfg)[0] == nu and fluctuator_weights(cfg)[0] == 1.0
    _, x = sample_noise_trace(cfg, duration=20_000.0, sample_rate=10.0,
                              rng=np.random.default_rng(13))
    assert set(np.unique(x)) == {-1.0, 1.0}
    # flips across disjoint gaps are independent: binomial counts, also for
    # the k-step gaps of the thinned chain (the Markov property)
    for k in (1, 4):
        y = x[::k]
        p = flip_probability(nu, 0.1 * k)
        freq = np.mean(y[1:] != y[:-1])
        assert abs(freq - p) <= 4.0 * np.sqrt(p * (1.0 - p) / (y.size - 1)), (k, freq, p)
    # irregular gaps: the flip probability follows each gap's length
    rng = np.random.default_rng(14)
    times = np.sort(rng.uniform(0.0, 50_000.0, 100_000))
    y = telegraph_bank(cfg, times, rng)
    gaps = np.diff(times)
    p = flip_probability(nu, gaps)
    excess = (y[1:] != y[:-1]) - p
    short = gaps < np.median(gaps)
    for sel in (slice(None), short, ~short):
        assert abs(excess[sel].sum()) <= 4.0 * np.sqrt((p * (1.0 - p))[sel].sum())


def test_telegraph_initial_state_stationary():
    # independent banks along the leading axis, each starting at a fair +-1
    y = telegraph_bank(one_fluctuator(0.5), np.zeros((40_000, 2)), np.random.default_rng(15))
    assert set(np.unique(y)) == {-1.0, 1.0}
    assert np.array_equal(y[:, 0], y[:, 1])    # no flip across a zero gap
    assert abs(y[:, 0].mean()) <= 4.0 / np.sqrt(y.shape[0])


def test_telegraph_time_average_near_zero():
    _, x = sample_noise_trace(one_fluctuator(1.0), duration=5000.0, sample_rate=8.0,
                              rng=np.random.default_rng(4))
    # effective sample count ~ duration * switch rate
    n_eff = 5000.0 * 2.0
    assert abs(x.mean()) < 3.0 / np.sqrt(n_eff)


def test_telegraph_blocks_do_not_change_the_bank(monkeypatch):
    import entseq.noise_model as nm

    times = np.sort(np.random.default_rng(16).uniform(0.0, 100.0, (3, 1000)))
    whole = telegraph_bank(OF, times, np.random.default_rng(17))
    monkeypatch.setattr(nm, "_TELEGRAPH_BLOCK", 7)
    assert np.array_equal(telegraph_bank(OF, times, np.random.default_rng(17)), whole)


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
