import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entseq.noise_model import (
    ALL_CHANNELS,
    NoiseConfig,
    ONE_OVER_F,
    QUASISTATIC,
    TWO_LOCAL_CHANNELS,
    fluctuator_rates,
    fluctuator_weights,
    make_ensemble,
    spectral_weight_exponent,
    telegraph_bank,
)
from entseq.sequence_engine import (
    SequenceParams,
    calibrate_amplitude,
    ensemble_gates,
    ensemble_slices,
    target_gate,
    uncorrected_error,
)

from oracles import any_value, estimate_local_fidelity, fit_spectral_exponent, sample_noise_trace

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
                {"channels": ((1, -1),)}, {"channels": ((1.9, 2),)},
                {"channels": ((True, 2),)}, {"sigma_nonlocal": True},
                {"alpha": True}, {"nu_max": True}, {"sigma_local": 10**400},
                # one coefficient per copy would drive XX with variance 2 sigma^2
                {"channels": ((1, 1), (1, 1))}, {"channels": ((1, 1), (2, 3), (1, 1))}):
        for kind in (QUASISTATIC, ONE_OVER_F):
            with pytest.raises(ValueError):
                NoiseConfig(kind=kind, **bad)


finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def noise_configs(draw):
    nu_min, nu_max = draw(st.tuples(positive, positive).filter(lambda nu: nu[0] < nu[1]))
    channels = draw(st.lists(st.sampled_from(ALL_CHANNELS), min_size=1, max_size=15,
                             unique=True))
    return NoiseConfig(
        kind=draw(st.sampled_from((QUASISTATIC, ONE_OVER_F))),
        sigma_nonlocal=draw(non_negative),
        sigma_local=draw(non_negative),
        alpha=draw(finite),
        gate_time_T=draw(positive),
        n_fluctuators=draw(st.integers(1, 10**6)),
        nu_min=nu_min,
        nu_max=nu_max,
        channels=tuple(channels),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@settings(deadline=None)
@given(noise_configs())
def test_config_dict_json_round_trip(cfg):
    assert NoiseConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@settings(deadline=None)
@given(st.sampled_from([f.name for f in fields(NoiseConfig)]), any_value)
def test_config_field_values_raise_only_value_or_type_errors(name, value):
    # any value in any one field: a config that round-trips, or a ValueError
    # or TypeError, never another exception
    try:
        cfg = NoiseConfig(**{name: value})
    except (ValueError, TypeError):
        return
    assert NoiseConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_config_from_dict_default_channels():
    # a noise block without channels means the default two-local set
    assert NoiseConfig.from_dict({"kind": "one_over_f"}) == NoiseConfig(kind="one_over_f")


def test_quasistatic_zero_amplitude():
    cfg = replace(QS, sigma_nonlocal=0.0, sigma_local=0.0)
    (real,) = make_ensemble(cfg, 4, 1, seed=0)
    assert not real.delta.any()
    assert not real.delta_eta.any()


def test_quasistatic_sample_std():
    cfg = replace(QS, sigma_local=0.0)
    draws = np.concatenate([r.delta[0] for r in make_ensemble(cfg, 1, 100_000 // 9, seed=2)])
    assert 0.128 <= draws.std() <= 0.132


def test_quasistatic_constant_across_segments():
    (real,) = make_ensemble(QS, 8, 1, seed=3)
    assert np.array_equal(real.delta, np.tile(real.delta[0], (8, 1)))


def test_determinism_same_seed():
    a = make_ensemble(QS, 4, 6)
    b = make_ensemble(QS, 4, 6)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.delta, rb.delta)
        assert np.array_equal(ra.delta_eta, rb.delta_eta)


def hand_draw(cfg, N, seed, m):
    """Member m drawn by hand from its own substream, in the documented order."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(m,)))
    C = len(cfg.channels)
    if cfg.kind == QUASISTATIC:
        delta = np.tile(rng.normal(0.0, cfg.sigma_nonlocal, C), (N, 1))
        return delta, rng.normal(0.0, cfg.sigma_local, (N, 6))
    lo = np.arange(N) * cfg.gate_time_T / N
    times = rng.uniform(lo, lo + cfg.gate_time_T / N, (C + 6, N))
    banks = telegraph_bank(cfg, times, rng)
    return cfg.sigma_nonlocal * banks[:C].T, cfg.sigma_local * banks[C:].T


@pytest.mark.parametrize("cfg", [QS, OF], ids=["quasistatic", "one_over_f"])
def test_members_follow_the_documented_draw_order(cfg):
    for N, seed in ((1, 0), (4, 23)):
        ensemble = make_ensemble(cfg, N, 3, seed=seed)
        for m, real in enumerate(ensemble):
            delta, delta_eta = hand_draw(cfg, N, seed, m)
            assert np.array_equal(real.delta, delta)
            assert np.array_equal(real.delta_eta, delta_eta)
            assert real.channels == cfg.channels


def test_substreams_are_order_independent():
    # an ensemble's members do not depend on how many members follow
    for cfg in (QS, OF):
        for a, b in zip(make_ensemble(cfg, 4, 4), make_ensemble(cfg, 4, 6)):
            assert np.array_equal(a.delta, b.delta)
            assert np.array_equal(a.delta_eta, b.delta_eta)


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
    (real,) = make_ensemble(cfg, 4, 1, seed=0)
    assert not real.delta.any()


def test_one_over_f_sample_std():
    vals = np.concatenate([r.delta.ravel() for r in make_ensemble(OF, 2, 600, seed=6)])
    assert 0.19 <= vals.std() <= 0.21


def test_one_over_f_stationary_mean():
    vals = np.concatenate([r.delta.ravel() for r in make_ensemble(OF, 2, 400, seed=7)])
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


def test_unreachable_alpha_named():
    # the default band (10 fluctuators on [0.05, 5]) cannot bend its fitted
    # slope to -2: the fit names alpha, the band and the count
    with pytest.raises(ValueError, match=r"alpha 2\.0 .* 10 fluctuators .*\[0\.05, 5\.0\]"):
        fluctuator_weights(replace(OF, alpha=2.0))


@pytest.mark.slow
def test_periodogram_exponent():
    rng = np.random.default_rng(8)
    _, x = sample_noise_trace(OF, duration=6000.0, sample_rate=100.0, rng=rng)
    alpha_hat = fit_spectral_exponent(x, 100.0, (OF.nu_min, OF.nu_max))
    assert abs(alpha_hat - OF.alpha) <= 0.15


def test_perturb_angles():
    # the kernel applies eta -> eta * (1 + delta_eta) to U only; with no
    # slice noise U is the target of the perturbed angles
    (real,) = make_ensemble(replace(QS, sigma_nonlocal=0.0), 2, 1, seed=9)
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
    with pytest.raises(ValueError):
        calibrate_amplitude(0.0, cfg, 4, 50)
    sigma = calibrate_amplitude(0.10, cfg, 4, 200)
    eps = uncorrected_error(replace(cfg, sigma_nonlocal=sigma), 4, 200)
    assert abs(eps - 0.10) <= 0.005
    sig_lo = calibrate_amplitude(0.05, cfg, 4, 100)
    sig_hi = calibrate_amplitude(0.20, cfg, 4, 100)
    assert sig_lo < sigma < sig_hi
    with pytest.raises(ValueError):
        calibrate_amplitude(0.7, cfg, 4, 10)
