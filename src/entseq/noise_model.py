"""Noise generation: quasistatic Gaussian error coefficients, 1/f^alpha noise
from superposed random-telegraph fluctuators, per-segment sampling, local
Euler-angle perturbations, and amplitude calibration.

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
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.signal import welch

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


@dataclass
class NoiseConfig:
    """Noise model parameters.  Rates are in units of 1/gate_time_T."""

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
        if not all(math.isfinite(v) and v >= 0 for v in (self.sigma_nonlocal, self.sigma_local)):
            raise ValueError("noise amplitudes must be finite and >= 0")
        if not (math.isfinite(self.gate_time_T) and self.gate_time_T > 0):
            raise ValueError("gate_time_T must be finite and positive")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if not 0 < self.nu_min < self.nu_max < math.inf:
            raise ValueError("need 0 < nu_min < nu_max, both finite")
        if not (is_int(self.n_fluctuators) and self.n_fluctuators >= 1):
            raise ValueError("n_fluctuators must be an integer >= 1")
        if not (is_int(self.seed) and self.seed >= 0):
            raise ValueError("seed must be an integer >= 0")
        self.channels = tuple((int(i), int(j)) for i, j in self.channels)
        if not self.channels or (0, 0) in self.channels:
            raise ValueError("channels must be nonempty and exclude (0, 0)")
        if not all(0 <= i <= 3 and 0 <= j <= 3 for i, j in self.channels):
            raise ValueError("channel indices must lie in 0..3")

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "sigma_nonlocal": self.sigma_nonlocal,
            "sigma_local": self.sigma_local,
            "alpha": self.alpha,
            "gate_time_T": self.gate_time_T,
            "n_fluctuators": self.n_fluctuators,
            "nu_min": self.nu_min,
            "nu_max": self.nu_max,
            "channels": [list(c) for c in self.channels],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        version = d.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported NoiseConfig schema version {version}")
        if "channels" in d:
            d["channels"] = tuple(tuple(c) for c in d["channels"])
        return cls(**d)

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), **kw)

    @classmethod
    def from_json(cls, s):
        return cls.from_dict(json.loads(s))

    def with_seed(self, seed):
        return replace(self, seed=int(seed))


@dataclass
class NoiseRealization:
    """Error coefficients and local-angle perturbations for one sampled world."""

    delta: np.ndarray          # (N, n_channels)
    delta_eta: np.ndarray      # (N, 6)
    channels: tuple
    kind: str

    @property
    def segment_count(self):
        return self.delta.shape[0]


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
    from scipy.optimize import brentq

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
    beta = spectral_weight_exponent(config) if n_fluctuators > 1 else 0.0
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


def sample_quasistatic(config, N, rng):
    """One Gaussian draw per channel, replicated across segments; independent
    Gaussian delta_eta per angle slot per segment."""
    if config.kind != QUASISTATIC:
        raise ValueError("config.kind must be quasistatic")
    draw = rng.normal(0.0, config.sigma_nonlocal, len(config.channels))
    delta = np.tile(draw, (N, 1))
    delta_eta = rng.normal(0.0, config.sigma_local, (N, 6))
    return NoiseRealization(delta, delta_eta, config.channels, config.kind)


def sample_one_over_f(config, N, rng):
    """One fluctuator bank per channel and per local angle slot, each read
    once per segment at a uniformly random time within that segment's window.

    Draw order: the ``(n_channels + 6, N)`` read times, then the banks'
    initial states and flips (``telegraph_bank``).
    """
    if config.kind != ONE_OVER_F:
        raise ValueError("config.kind must be one_over_f")
    T = config.gate_time_T
    lo = np.arange(N) * T / N
    hi = lo + T / N
    C = len(config.channels)
    times = rng.uniform(lo, hi, (C + 6, N))
    banks = telegraph_bank(config, times, rng)
    delta = config.sigma_nonlocal * banks[:C].T
    delta_eta = config.sigma_local * banks[C:].T
    return NoiseRealization(delta, delta_eta, config.channels, config.kind)


def sample_realization(config, N, rng):
    if config.kind == QUASISTATIC:
        return sample_quasistatic(config, N, rng)
    return sample_one_over_f(config, N, rng)


def realization_rng(seed, m):
    """Independent substream for ensemble member ``m``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(m,)))


def make_ensemble(config, N, M, seed=None):
    """M independent noise realizations with per-member substreams."""
    seed = config.seed if seed is None else seed
    return [
        sample_realization(config, N, realization_rng(seed, m)) for m in range(M)
    ]


def estimate_local_fidelity(sigma_local, n_coeff_sets, n_angle_sets, rng,
                            angle_range=4.0 * np.pi):
    """Monte-Carlo mean of the local-rotation fidelity
    ``|tr(R(eta')^dag R(eta))|^2 / 16`` under multiplicative angle noise.

    Angle sets are uniform in ``[-angle_range, angle_range]``; each of the six
    angles gets an independent Gaussian coefficient per coefficient set.
    """
    from .gate_algebra import local_rotation

    if n_coeff_sets < 1 or n_angle_sets < 1:
        raise ValueError("sample counts must be >= 1")
    total = 0.0
    for _ in range(n_angle_sets):
        ang = rng.uniform(-angle_range, angle_range, 6)
        R = local_rotation(ang)
        deltas = rng.normal(0.0, sigma_local, (n_coeff_sets, 6))
        Rp = local_rotation(ang[None, :] * (1.0 + deltas))
        tr = np.einsum("ji,mji->m", R.conj(), Rp)
        total += ((tr.real ** 2 + tr.imag ** 2) / 16.0).mean()
    return total / n_angle_sets


def calibrate_amplitude(target_uncorrected_error, config, N, M,
                        rel_tol=0.05, max_sigma=2.0):
    """Bisect sigma_nonlocal until the identity-rotation (uncorrected) gate
    error matches the target within ``rel_tol`` relative.

    The same ensemble substreams are reused for every trial amplitude
    (common random numbers), which makes the bisected function deterministic
    and monotone.
    """
    from .sequence_engine import uncorrected_error

    if target_uncorrected_error == 0:
        return 0.0
    if not 0 < target_uncorrected_error < 0.5:
        raise ValueError("target uncorrected error must lie in (0, 0.5)")

    def eps_at(sigma):
        return uncorrected_error(replace(config, sigma_nonlocal=sigma), N, M)

    lo, hi = 0.0, max(config.sigma_nonlocal, 0.05)
    while eps_at(hi) < target_uncorrected_error:
        hi *= 2.0
        if hi > max_sigma:
            raise RuntimeError(
                f"calibration failed to bracket the target below sigma={max_sigma}"
            )
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        eps = eps_at(mid)
        if abs(eps - target_uncorrected_error) <= rel_tol * target_uncorrected_error:
            return mid
        if eps < target_uncorrected_error:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sample_noise_trace(config, duration, sample_rate, rng):
    """One summed, weighted fluctuator bank on a uniform time grid
    (diagnostic helper for spectral checks)."""
    t = np.arange(0.0, duration, 1.0 / sample_rate)
    return t, config.sigma_nonlocal * telegraph_bank(config, t, rng)


def fit_spectral_exponent(x, sample_rate, band, nperseg=32768, n_bins=24):
    """Spectral exponent alpha_hat (S ~ 1/f^alpha_hat) of a sampled trace.

    Welch periodogram, averaged within log-spaced frequency bins over
    ``band = (f_lo, f_hi)``, then a log-log least-squares fit.  Log binning
    keeps the fit from being dominated by the dense high-frequency points of
    the linear Welch grid.
    """
    f, P = welch(x, fs=sample_rate, nperseg=min(nperseg, len(x)))
    edges = np.geomspace(band[0], band[1], n_bins + 1)
    fc, pc = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (f >= lo) & (f < hi)
        if sel.any():
            fc.append(np.exp(np.log(f[sel]).mean()))
            pc.append(P[sel].mean())
    slope = np.polyfit(np.log(fc), np.log(pc), 1)[0]
    return -slope
