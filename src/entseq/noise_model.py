"""Noise generation: quasistatic Gaussian error coefficients, 1/f^alpha noise
from superposed random-telegraph fluctuators, and local Euler-angle
perturbations.  ``make_ensemble`` is the one sampler for every noise kind.

An ensemble of M sampled worlds is one ``Ensemble`` record:

* ``delta``      -- shape ``(M, N, n_channels)``, the coefficient of
  ``sigma_i (x) sigma_j`` for channel c in segment n of member m
  (quasistatic noise repeats one draw across all segments),
* ``delta_eta``  -- shape ``(M, N, 6)``, multiplicative perturbations of the
  Euler angles, one per angle slot per segment,
* ``channels``   -- the channel of each column of ``delta``.

1/f noise is a weighted bank of random-telegraph fluctuators with log-spaced
rates ``nu_f``.  Each fluctuator switches sign as a Poisson process of rate
``2 nu_f``, so read at sorted times it is a two-state Markov chain: a
stationary +-1 at the first time, then a flip with probability
``(1 - exp(-4 nu_f dt)) / 2`` across each gap ``dt``.
Only the values at the read times are drawn, never the switch events.

Reproducibility: member ``m`` of an ensemble draws from an independent
substream ``SeedSequence(entropy=seed, spawn_key=(m,))`` so results are
independent of evaluation order and worker count (see ``make_ensemble``).
"""

import functools
import json
import sys
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.optimize import brentq

QUASISTATIC = "quasistatic"
ONE_OVER_F = "one_over_f"

# the nine two-local channels sigma_i (x) sigma_j, i, j in {X, Y, Z}
TWO_LOCAL_CHANNELS = tuple((i, j) for i in range(1, 4) for j in range(1, 4))
# all fifteen non-identity pairs, including single-sided (i, 0) and (0, j)
ALL_CHANNELS = tuple((i, j) for i in range(4) for j in range(4) if (i, j) != (0, 0))

SCHEMA_VERSION = 1


def is_int(v):
    """True for a Python or NumPy integer (bool excluded)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_real(v):
    """True for a Python or NumPy integer or float (bool excluded) that is finite
    as a float: not NaN, not infinite, and no integer too large to convert."""
    return (isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def without_retired(d, **fixed):
    """Block ``d`` without the retired keys ``fixed`` (key=value it is fixed at): one
    whose JSON text is its fixed value's is dropped, any other value is a ValueError."""
    for key, value in fixed.items():
        if key in d and json.dumps(d[key]) != json.dumps(value):
            raise ValueError(f"{key} is no longer a setting; it is fixed at {json.dumps(value)}")
    return {k: v for k, v in d.items() if k not in fixed}


@dataclass
class NoiseConfig:
    """Noise model parameters.  Time is in units of the gate time: the gate
    spans ``[0, 1]``, segment n of N reads its noise in ``[n/N, (n+1)/N]``,
    and the fluctuator rates ``nu_min``, ``nu_max`` are per gate time."""

    kind: str = QUASISTATIC
    sigma_nonlocal: float = 0.13
    sigma_local: float = 0.0
    alpha: float = 0.7
    n_fluctuators: int = 10
    nu_min: float = 1.0 / 20.0
    nu_max: float = 5.0
    channels: tuple = field(default_factory=lambda: TWO_LOCAL_CHANNELS)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (QUASISTATIC, ONE_OVER_F):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not all(is_real(v) and v >= 0 for v in (self.sigma_nonlocal, self.sigma_local)):
            raise ValueError("noise amplitudes must be finite numbers >= 0")
        if not is_real(self.alpha):
            raise ValueError("alpha must be a finite number")
        if not (is_real(self.nu_min) and is_real(self.nu_max) and 0 < self.nu_min < self.nu_max):
            raise ValueError("need finite numbers 0 < nu_min < nu_max")
        if not (is_int(self.n_fluctuators) and self.n_fluctuators >= 1):
            raise ValueError("n_fluctuators must be an integer >= 1")
        if not (is_int(self.seed) and self.seed >= 0):
            raise ValueError("seed must be an integer >= 0")
        pairs = [(i, j) for i, j in self.channels]
        if not all(is_int(k) and 0 <= k <= 3 for pair in pairs for k in pair):
            raise ValueError(f"channel indices must be integers in 0..3, got {pairs!r}")
        self.channels = tuple((int(i), int(j)) for i, j in pairs)
        if not self.channels or (0, 0) in self.channels:
            raise ValueError("channels must be nonempty and exclude (0, 0)")
        # a repeated channel would get a coefficient per copy: variance k sigma^2
        if len(set(self.channels)) < len(self.channels):
            raise ValueError(f"channels must be distinct, got {pairs!r}")

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            **asdict(self),
            "channels": [list(c) for c in self.channels],
        }

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        version = d.pop("schema_version", SCHEMA_VERSION)
        if not (is_int(version) and version == SCHEMA_VERSION):
            raise ValueError(f"unsupported NoiseConfig schema version {version}")
        return cls(**without_retired(d, gate_time_T=1.0))


@dataclass
class Ensemble:
    """Error coefficients and local-angle perturbations of M sampled worlds."""

    delta: np.ndarray          # (M, N, n_channels)
    delta_eta: np.ndarray      # (M, N, 6)
    channels: tuple

    def __iter__(self):
        """Each member as an ``Ensemble`` without the leading axis, as perfbench reads them."""
        return (Ensemble(d, e, self.channels) for d, e in zip(self.delta, self.delta_eta))


def fluctuator_rates(config):
    return np.geomspace(config.nu_min, config.nu_max, config.n_fluctuators)


def _band_psd(f, rates, power_weights):
    S = np.zeros_like(f)
    for nu, p in zip(rates, power_weights):
        lam = 2.0 * nu
        S += p * (8.0 * lam) / ((2.0 * lam) ** 2 + (2.0 * np.pi * f) ** 2)
    return S


def spectral_weight_exponent(config):
    """Power-law exponent beta with fluctuator power ~ nu^beta such that the
    log-log fit of the summed Lorentzian spectrum over [nu_min, nu_max]
    equals -alpha.

    The continuum rule beta = 1 - alpha only holds for a dense bank on an
    unbounded band; with ten fluctuators on two decades the band-edge
    Lorentzian tails steepen the fit, so the exponent is calibrated against
    the analytic spectrum instead.
    """
    rates = fluctuator_rates(config)
    f = np.geomspace(config.nu_min, config.nu_max, 400)
    logf = np.log(f)

    def fitted_slope_offset(beta):
        w = rates ** beta
        S = _band_psd(f, rates, w / w.sum())
        return np.polyfit(logf, np.log(S), 1)[0] + config.alpha

    return brentq(fitted_slope_offset, -2.0, 4.0, xtol=1e-10)


def fluctuator_weights(config):
    """Per-fluctuator amplitudes, normalized to unit total stationary variance
    (read-only, shared by every config with the same spectral band)."""
    return _band_weights(config.alpha, config.nu_min, config.nu_max, config.n_fluctuators)


@functools.cache
def _band_weights(alpha, nu_min, nu_max, n_fluctuators):
    # the spectral fit depends on these four fields only
    config = NoiseConfig(kind=ONE_OVER_F, alpha=alpha, nu_min=nu_min, nu_max=nu_max,
                         n_fluctuators=n_fluctuators)
    rates = fluctuator_rates(config)
    # a lone fluctuator has no spectral shape to fit: it carries all the variance
    try:
        beta = spectral_weight_exponent(config) if n_fluctuators > 1 else 0.0
    except ValueError as exc:   # brentq: no weight exponent gives this slope
        raise ValueError(f"alpha {alpha!r} is out of reach of {n_fluctuators} fluctuators "
                         f"on the band [{nu_min!r}, {nu_max!r}]") from exc
    w = rates ** (0.5 * beta)
    w = w / np.sqrt((w ** 2).sum())
    w.flags.writeable = False
    return w


# members per block of make_ensemble's 1/f arithmetic: a member's temporaries
# hold F + 1 uniforms per read, so a block bounds them at large N x M without
# changing the members
_MEMBER_BLOCK = 64


def _telegraph(rates, weights, t, u):
    """The weighted fluctuator bank ``weights @ states`` ``(N, ...)`` at the
    time-major read times ``t`` ``(N, ...)``, from one uniform in ``u``
    ``(N, ..., F)`` per read and fluctuator: a fluctuator starts at a
    stationary +1 where ``u[0] < 0.5``, and flips across a gap ``dt`` where its
    uniform is below ``(1 - exp(-4 nu dt)) / 2``, the chance of an odd number
    of rate-``2 nu`` switches."""
    gaps = np.ascontiguousarray(np.diff(t, axis=0))[..., None]
    # time-major whatever the layout of u: each step below works on whole rows
    states = np.empty(u.shape, dtype=bool)
    np.less(u[0], 0.5, out=states[0])
    np.greater(-0.5 * np.expm1(-4.0 * rates * gaps), u[1:], out=states[1:])
    # the running XOR over time in log2 steps (numpy reads an overlapping
    # operand as if copied first)
    shift = 1
    while shift < len(states):
        states[shift:] ^= states[:-shift]
        shift *= 2
    return np.where(states, 1.0, -1.0) @ weights


def _member_rng(seed, m):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(m,)))


def make_ensemble(config, N, M, seed=None):
    """An ``Ensemble`` of M independent worlds of N segments, member m drawn from its
    own substream ``SeedSequence(entropy=seed, spawn_key=(m,))`` (``seed``
    defaults to ``config.seed``) in one call.  Draw order within a member:

    * quasistatic: ``standard_normal(C + 6 N)``: one Gaussian per channel,
      repeated across the segments, then one per segment and angle slot;
    * 1/f: ``random(K N (F + 1))`` for ``K = C + 6`` fluctuator banks (one per
      channel and per angle slot) of ``F`` fluctuators, each bank read once
      per segment at a uniform time in its window: the ``(K, N)`` read times,
      then the banks' initial states ``(K, F)`` (a fluctuator starts at +1
      where its uniform is below 0.5) and flips ``(N - 1, K, F)``, time-major.

    Only the draws are per member.  Their scaling and one ``_telegraph`` call
    for all N reads run once per block of members.  Each draw is scaled as
    ``Generator.normal`` and ``Generator.uniform`` scale it (``0.0 + sigma z``,
    ``lo + (hi - lo) u``), so every member is bit-equal to drawing it with
    those calls, member by member.
    """
    for name, value in (("N", N), ("M", M)):
        if not (is_int(value) and value >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    seed = config.seed if seed is None else seed
    C = len(config.channels)
    if config.kind == QUASISTATIC:
        z = np.stack([_member_rng(seed, m).standard_normal(C + 6 * N) for m in range(M)])
        delta = np.repeat(0.0 + config.sigma_nonlocal * z[:, None, :C], N, axis=1)
        delta_eta = (0.0 + config.sigma_local * z[:, C:]).reshape(M, N, 6)
    else:
        rates = fluctuator_rates(config)
        weights = fluctuator_weights(config)
        K, F = C + 6, len(rates)
        lo = np.arange(N) / N
        hi = lo + 1 / N
        banks = np.empty((N, M, K))   # time-major, as _telegraph carries them
        for a in range(0, M, _MEMBER_BLOCK):
            u = np.stack([_member_rng(seed, m).random(K * N * (F + 1))
                          for m in range(a, min(a + _MEMBER_BLOCK, M))])
            t = np.moveaxis(lo + (hi - lo) * u[:, :K * N].reshape(-1, K, N), -1, 0)
            # (N, members, K, F): the initial states' uniforms, then the flips'
            s = np.moveaxis(u[:, K * N:].reshape(-1, N, K, F), 1, 0)
            banks[:, a:a + _MEMBER_BLOCK] = _telegraph(rates, weights, t, s)
        banks = np.moveaxis(banks, 0, 1)
        delta = config.sigma_nonlocal * banks[..., :C]
        delta_eta = config.sigma_local * banks[..., C:]
    return Ensemble(delta, delta_eta, config.channels)
