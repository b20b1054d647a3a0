"""Noise generation: quasistatic Gaussian error coefficients, 1/f^alpha noise
from superposed random-telegraph fluctuators, per-segment sampling, local
Euler-angle perturbations, and amplitude calibration.

A noise realization holds, for one sampled world:

* ``delta``      -- shape ``(N, n_channels)``, the error coefficients
  ``delta[n, c]`` multiplying ``sigma_i (x) sigma_j`` for channel c in
  segment n (quasistatic noise repeats one draw across all segments),
* ``delta_eta``  -- shape ``(N, 6)``, multiplicative perturbations applied to
  the Euler angles, one per angle slot per segment.

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


@dataclass
class RtnTrace:
    """A single random-telegraph fluctuator over ``[0, horizon]``.

    ``nu`` is the relaxation rate: mean dwell time tau = 1/(2 nu), so switch
    events are Poisson with rate ``2 nu``.
    """

    switch_times: np.ndarray
    initial_state: int
    nu: float
    horizon: float


def sample_rtn_trace(nu, horizon, rng):
    lam = 2.0 * nu
    times = []
    t = rng.exponential(1.0 / lam)
    while t < horizon:
        times.append(t)
        t += rng.exponential(1.0 / lam)
    s0 = 1 if rng.random() < 0.5 else -1
    return RtnTrace(np.asarray(times), s0, nu, horizon)


def rtn_value(trace, t):
    """Trace value at time(s) ``t``: initial state flipped once per switch."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t > trace.horizon):
        raise ValueError("query time outside the trace horizon")
    flips = np.searchsorted(trace.switch_times, t, side="right")
    return trace.initial_state * np.where(flips % 2 == 0, 1.0, -1.0)


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
    w = rates ** (0.5 * spectral_weight_exponent(config))
    w = w / np.sqrt((w ** 2).sum())
    w.flags.writeable = False
    return w


def _bank_value(traces, weights, t):
    out = np.zeros(np.shape(t))
    for trace, w in zip(traces, weights):
        out = out + w * rtn_value(trace, t)
    return out


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
    """Per-channel fluctuator banks sampled once per segment at a uniformly
    random time within that segment's window; local slots handled the same
    way with six independent banks."""
    if config.kind != ONE_OVER_F:
        raise ValueError("config.kind must be one_over_f")
    T = config.gate_time_T
    lo = np.arange(N) * T / N
    hi = lo + T / N
    rates = fluctuator_rates(config)
    weights = fluctuator_weights(config)

    def sampled_trace(sigma):
        traces = [sample_rtn_trace(nu, T, rng) for nu in rates]
        return sigma * _bank_value(traces, weights, rng.uniform(lo, hi))

    delta = np.stack(
        [sampled_trace(config.sigma_nonlocal) for _ in config.channels], axis=1
    )
    delta_eta = np.stack([sampled_trace(config.sigma_local) for _ in range(6)], axis=1)
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
    """One summed, weighted fluctuator process on a uniform time grid
    (diagnostic helper for spectral checks)."""
    weights = fluctuator_weights(config)
    traces = [sample_rtn_trace(nu, duration, rng) for nu in fluctuator_rates(config)]
    t = np.arange(0.0, duration, 1.0 / sample_rate)
    return t, config.sigma_nonlocal * _bank_value(traces, weights, t)


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
