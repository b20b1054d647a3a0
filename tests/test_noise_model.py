import itertools
import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entseq.noise_model import (
    ALL_CHANNELS,
    Ensemble,
    NoiseConfig,
    ONE_OVER_F,
    QUASISTATIC,
    TWO_LOCAL_CHANNELS,
    fluctuator_rates,
    fluctuator_weights,
    make_ensemble,
    spectral_weight_exponent,
)
from entseq.sequence_engine import (
    SequenceParams,
    calibrate_amplitude,
    ensemble_gates,
    ensemble_slices,
    target_gate,
    uncorrected_errors,
)

from oracles import (
    any_value,
    estimate_local_fidelity,
    fit_spectral_exponent,
    make_ensemble_member_by_member,
    sample_noise_trace,
    telegraph_bank,
)

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
    for bad in ({"sigma_nonlocal": np.nan}, {"sigma_local": np.inf},
                {"alpha": np.nan}, {"nu_min": 0.0},
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
    draws = make_ensemble(cfg, 1, 100_000 // 9, seed=2).delta
    assert 0.128 <= draws.std() <= 0.132


def test_quasistatic_constant_across_segments():
    (real,) = make_ensemble(QS, 8, 1, seed=3)
    assert np.array_equal(real.delta, np.tile(real.delta[0], (8, 1)))


def test_determinism_same_seed():
    a = make_ensemble(QS, 4, 6)
    b = make_ensemble(QS, 4, 6)
    assert np.array_equal(a.delta, b.delta)
    assert np.array_equal(a.delta_eta, b.delta_eta)


def same_bytes(ensemble, members):
    """The record's arrays byte for byte the members' ``(delta, delta_eta)``, stacked."""
    return all((a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
               for a, b in zip((ensemble.delta, ensemble.delta_eta),
                               (np.stack(part) for part in zip(*members))))


def test_iterating_a_record_yields_its_members():
    # perfbench/checks.py and perfbench/reference.py read an ensemble member by
    # member (r.delta, r.delta_eta, r.channels): each member is a record
    # without the leading axis, byte for byte the record's rows
    for cfg in (QS, OF):
        ensemble = make_ensemble(cfg, 3, 4)
        members = list(ensemble)
        assert len(members) == 4
        for m, r in enumerate(members):
            assert isinstance(r, Ensemble) and r.channels == ensemble.channels
            assert r.delta.shape == (3, len(cfg.channels)) and r.delta_eta.shape == (3, 6)
            for a, b in ((r.delta, ensemble.delta[m]), (r.delta_eta, ensemble.delta_eta[m])):
                assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


# a zero amplitude pins Generator.normal's 0.0 + sigma z, which turns -0.0
# into 0.0; the one-fluctuator config has no spectral fit
DRAW_CONFIGS = [replace(cfg, sigma_nonlocal=sigma_nonlocal, sigma_local=sigma_local)
                for cfg in (OF, replace(OF, channels=ALL_CHANNELS),
                            replace(OF, n_fluctuators=1, nu_min=0.8, nu_max=1.6))
                for sigma_nonlocal, sigma_local in ((0.2, 0.0), (0.2, 0.01), (0.0, 0.0))]


@pytest.mark.parametrize("kind", [QUASISTATIC, ONE_OVER_F])
def test_members_follow_the_documented_draw_order(kind):
    # byte for byte the frozen member-by-member sampler, whose arithmetic
    # does not share code with the package's
    for cfg in DRAW_CONFIGS:
        cfg = replace(cfg, kind=kind)
        for seed, N, M in itertools.product((0, 2**64 - 59), (1, 2, 5, 16), (1, 3, 20)):
            ensemble = make_ensemble(cfg, N, M, seed=seed)
            assert same_bytes(ensemble, make_ensemble_member_by_member(cfg, N, M, seed)), (cfg, N, M)
            assert ensemble.channels == cfg.channels


@pytest.mark.parametrize("block", [1, 3])
def test_member_blocks_do_not_change_the_members(monkeypatch, block):
    import entseq.noise_model as nm

    monkeypatch.setattr(nm, "_MEMBER_BLOCK", block)
    for N, M in ((1, 4), (5, 7)):
        assert same_bytes(make_ensemble(OF, N, M), make_ensemble_member_by_member(OF, N, M))


@pytest.mark.parametrize("cfg", [QS, OF], ids=["quasistatic", "one_over_f"])
@pytest.mark.parametrize("N, M, name", [(0, 3, "N"), (3, 0, "M"), (3, -1, "M"), (2.0, 3, "N"),
                                         (True, 3, "N"), (3, "3", "M")])
def test_make_ensemble_refuses_bad_sizes(cfg, N, M, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
        make_ensemble(cfg, N, M)


def test_substreams_are_order_independent():
    # an ensemble's members do not depend on how many members follow
    for cfg in (QS, OF):
        a, b = make_ensemble(cfg, 4, 4), make_ensemble(cfg, 4, 6)
        assert np.array_equal(a.delta, b.delta[:4])
        assert np.array_equal(a.delta_eta, b.delta_eta[:4])


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


def test_one_over_f_zero_amplitude():
    cfg = replace(OF, sigma_nonlocal=0.0, sigma_local=0.0)
    (real,) = make_ensemble(cfg, 4, 1, seed=0)
    assert not real.delta.any()


def test_one_over_f_sample_std():
    vals = make_ensemble(OF, 2, 600, seed=6).delta
    assert 0.19 <= vals.std() <= 0.21


def test_one_over_f_stationary_mean():
    vals = make_ensemble(OF, 2, 400, seed=7).delta
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
    ensemble = make_ensemble(replace(QS, sigma_nonlocal=0.0), 2, 1, seed=9)
    angles = np.arange(12.0)

    def gates(x):
        U, O = ensemble_gates(x, *ensemble_slices(ensemble))
        return U[0], O

    U, O = gates(angles)
    perturbed = angles * (1.0 + ensemble.delta_eta.ravel())
    assert np.allclose(U, target_gate(SequenceParams(2, perturbed)), atol=1e-12)
    assert np.array_equal(O, target_gate(SequenceParams(2, angles)))
    assert not np.allclose(U, O, atol=1e-6)
    ensemble.delta_eta[:] = 0.0
    U, O = gates(angles)
    assert np.array_equal(U, O)
    ensemble.delta_eta[:] = 0.01
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
    sigma, errors = calibrate_amplitude(0.10, cfg, 4, 200)
    # the returned errors are those of the ensemble drawn at sigma, bit for
    # bit, and their mean is the score
    drawn = make_ensemble(replace(cfg, sigma_nonlocal=sigma), 4, 200)
    assert np.array_equal(errors, uncorrected_errors(drawn))
    assert abs(np.mean(errors) - 0.10) <= 0.005
    sig_lo, _ = calibrate_amplitude(0.05, cfg, 4, 100)
    sig_hi, _ = calibrate_amplitude(0.20, cfg, 4, 100)
    assert sig_lo < sigma < sig_hi
    with pytest.raises(ValueError):
        calibrate_amplitude(0.7, cfg, 4, 10)


def test_calibrate_amplitude_scores_the_returned_sigma(monkeypatch):
    # with no tolerance the bisection runs all its rounds and returns the
    # midpoint of the last bracket, which no round has scored
    import entseq.sequence_engine as se

    monkeypatch.setattr(se, "CALIBRATION_REL_TOL", 0.0)
    cfg = replace(QS, sigma_local=0.0, seed=21)
    sigma, errors = calibrate_amplitude(0.10, cfg, 4, 20)
    drawn = make_ensemble(replace(cfg, sigma_nonlocal=sigma), 4, 20)
    assert np.array_equal(errors, uncorrected_errors(drawn))


@pytest.mark.parametrize("cfg", [QS, OF], ids=["quasistatic", "one_over_f"])
def test_calibrate_amplitude_samples_once(monkeypatch, cfg):
    # one draw at sigma_nonlocal = 1, scaled for every trial amplitude as
    # 0.0 + sigma * delta: bit for bit the draw at that amplitude, although
    # the two kinds scale their draws differently
    import entseq.noise_model as nm

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return make_ensemble(*args, **kwargs)

    monkeypatch.setattr(nm, "make_ensemble", counted)
    calibrate_amplitude(0.10, cfg, 4, 50)
    assert len(calls) == 1
    for sigma_local in (0.0, 0.006):
        unit = make_ensemble(replace(cfg, sigma_nonlocal=1.0, sigma_local=sigma_local), 3, 5)
        for sigma in (0.01, 0.13, 0.7, 2.0):
            drawn = make_ensemble(replace(cfg, sigma_nonlocal=sigma, sigma_local=sigma_local), 3, 5)
            assert same_bytes(drawn, list(zip(0.0 + sigma * unit.delta, unit.delta_eta))), sigma
