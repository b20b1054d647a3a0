"""Noise generation: quasistatic Gaussian error coefficients, 1/f^alpha noise
from superposed random-telegraph fluctuators, and local Euler-angle
perturbations.  ``make_ensemble`` is the one sampler for every noise kind.

A noise realization holds, for one sampled world:

* ``delta``      -- shape ``(N, n_channels)``, the error coefficients
  ``delta[n, c]`` multiplying ``sigma_i (x) sigma_j`` for channel c in
  segment n (quasistatic noise repeats one draw across all segments),
* ``delta_eta``  -- shape ``(N, 6)``, multiplicative perturbations applied to
  the Euler angles, one per angle slot per segment.

1/f noise is a weighted bank of random-telegraph fluctuators with log-spaced
rates ``nu_f``.  Each fluctuator switches sign as a Poisson process of rate
``2 nu_f``, so read at sorted times it is a two-state Markov chain: a
stationary +-1 at the first time, then a flip with probability
``(1 - exp(-4 nu_f dt)) / 2`` across each gap ``dt`` (``telegraph_bank``).
Only the values at the read times are drawn, never the switch events.

Reproducibility: realization ``m`` of an ensemble draws from an independent
substream ``SeedSequence(entropy=seed, spawn_key=(m,))`` so results are
independent of evaluation order and worker count.
"""

import functools
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


@dataclass
class NoiseConfig:
    """Noise model parameters.  Time is absolute: the gate spans
    ``[0, gate_time_T]`` and the fluctuator rates are per unit of that time."""

    kind: str = QUASISTATIC
    sigma_nonlocal: float = 0.13
    sigma_local: float = 0.0
    alpha: float = 0.7
    gate_time_T: float = 1.0
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
        if not (is_real(self.gate_time_T) and self.gate_time_T > 0):
            raise ValueError("gate_time_T must be a finite positive number")
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
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported NoiseConfig schema version {version}")
        return cls(**d)


@dataclass
class NoiseRealization:
    """Error coefficients and local-angle perturbations for one sampled world."""

    delta: np.ndarray          # (N, n_channels)
    delta_eta: np.ndarray      # (N, 6)
    channels: tuple


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


# time rows per block of telegraph_bank draws: bounds the temporaries of a
# long trace without changing the draws or the states
_TELEGRAPH_BLOCK = 1 << 14


def telegraph_bank(config, times, rng):
    """The weighted fluctuator bank of ``config`` read at ``times``, shape
    ``(..., n)`` and sorted along the last axis; independent banks along the
    leading axes.  Returns ``fluctuator_weights(config) @ states``, shape
    ``(..., n)``, where ``states`` holds each fluctuator's +-1 values.

    Draw order: the initial states, one uniform per bank and fluctuator, then
    the flips, one uniform per gap, bank and fluctuator, time-major.  A
    fluctuator starts at a stationary +-1 and flips across a gap ``dt`` with
    probability ``(1 - exp(-4 nu dt)) / 2``, the chance of an odd number of
    rate-``2 nu`` switches.
    """
    rates = fluctuator_rates(config)
    weights = fluctuator_weights(config)
    t = np.moveaxis(np.asarray(times, dtype=float), -1, 0)
    up = rng.random(t.shape[1:] + rates.shape) < 0.5
    out = np.empty(t.shape)
    out[0] = np.where(up, 1.0, -1.0) @ weights
    for a in range(1, len(t), _TELEGRAPH_BLOCK):
        gaps = np.diff(t[a - 1:a + _TELEGRAPH_BLOCK], axis=0)[..., None]
        flips = rng.random(gaps.shape[:-1] + rates.shape) < -0.5 * np.expm1(-4.0 * rates * gaps)
        flips[0] ^= up
        states = np.logical_xor.accumulate(flips, axis=0)
        out[a:a + _TELEGRAPH_BLOCK] = np.where(states, 1.0, -1.0) @ weights
        up = states[-1]
    return np.moveaxis(out, 0, -1)


def make_ensemble(config, N, M, seed=None):
    """M independent noise realizations of N segments, member m drawn from its
    own substream ``SeedSequence(entropy=seed, spawn_key=(m,))`` (``seed``
    defaults to ``config.seed``).  Draw order within a member:

    * quasistatic: one Gaussian per channel, repeated across the segments,
      then one Gaussian ``delta_eta`` per angle slot and segment;
    * 1/f: one fluctuator bank per channel and per angle slot, read once per
      segment at a uniform time in its window: the ``(n_channels + 6, N)``
      read times, then the banks' states and flips (``telegraph_bank``).
    """
    seed = config.seed if seed is None else seed
    C = len(config.channels)
    lo = np.arange(N) * config.gate_time_T / N
    hi = lo + config.gate_time_T / N
    ensemble = []
    for m in range(M):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(m,)))
        if config.kind == QUASISTATIC:
            delta = np.tile(rng.normal(0.0, config.sigma_nonlocal, C), (N, 1))
            delta_eta = rng.normal(0.0, config.sigma_local, (N, 6))
        else:
            banks = telegraph_bank(config, rng.uniform(lo, hi, (C + 6, N)), rng)
            delta = config.sigma_nonlocal * banks[:C].T
            delta_eta = config.sigma_local * banks[C:].T
        ensemble.append(NoiseRealization(delta, delta_eta, config.channels))
    return ensemble

