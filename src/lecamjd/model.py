"""Experiment parameterization for discretely observed jump diffusions.

The observed process accumulates a deterministic drift, a Brownian part with
known time-dependent volatility scaled by a noise level ``epsilon_n``, and
compound Poisson jumps.  This module holds the experiment description
(:class:`ModelSpec`), observation grids, jump size laws, and the per-interval
summary integrals

    m_i      = integral of the drift over the interval,
    sigma_i^2 = integral of the squared noise volatility,
    lambda_i = integral of the jump intensity,
    alpha_i  = lambda_i * exp(-lambda_i),

which every downstream law, kernel, and bound consumes.  They are held as
arrays with one entry per interval (:class:`IncrementSummaries`); a single
interval is a grid of one.

Drift, volatility, and intensity are evaluation callbacks wrapped in
:class:`TimeFunction`; exact antiderivative hooks are used when available
(constant, affine, sinusoid) and adaptive quadrature is the fallback.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import _gauss
from ._quadrature import QuadratureError, integrate

__all__ = [
    "QuadratureError",
    "TimeFunction",
    "constant",
    "linear",
    "sine",
    "as_time_function",
    "JumpLaw",
    "DiracJump",
    "LatticeJumps",
    "ContinuousJumps",
    "uniform_jumps",
    "gaussian_jumps",
    "HolderClassParams",
    "Grid",
    "ModelSpec",
    "IncrementSummaries",
    "build_increment_summaries",
    "piecewise_drift",
    "check_sigma_log_derivative",
]

#: absolute tolerance for every adaptive time integral in this module
QUAD_ABS_TOL = 1e-10


# ---------------------------------------------------------------------------
# time functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeFunction:
    """Scalar function of time with optional exact integral hooks.

    ``fn`` must accept scalars and numpy arrays.  ``integral(a, b)`` and
    ``square_integral(a, b)`` return the exact integral of ``fn`` and of
    ``fn**2`` over ``[a, b]`` when closed forms exist, elementwise for
    arrays of interval ends; quadrature fills in otherwise.
    """

    fn: Callable
    integral: Callable | None = None
    square_integral: Callable | None = None

    def __call__(self, t):
        return self.fn(t)


def constant(value: float) -> TimeFunction:
    v = float(value)
    return TimeFunction(
        fn=lambda t: v + 0.0 * np.asarray(t, dtype=float),
        integral=lambda a, b: v * (b - a),
        square_integral=lambda a, b: v * v * (b - a),
    )


def linear(intercept: float, slope: float) -> TimeFunction:
    p, q = float(intercept), float(slope)

    def _int(a, b):
        return p * (b - a) + 0.5 * q * (b * b - a * a)

    def _int_sq(a, b):
        # (v^3 - u^3) / (3q) without the cancellation of a small slope
        u, v = p + q * a, p + q * b
        return (b - a) * (u * u + u * v + v * v) / 3.0

    return TimeFunction(
        fn=lambda t: p + q * np.asarray(t, dtype=float),
        integral=_int,
        square_integral=_int_sq,
    )


def sine(offset: float, amplitude: float, angular_frequency: float,
         phase: float = 0.0) -> TimeFunction:
    c, amp, w, ph = (float(offset), float(amplitude),
                     float(angular_frequency), float(phase))
    if w == 0.0:
        return constant(c + amp * math.sin(ph))

    def _int(a, b):
        return (c * (b - a)
                - (amp / w) * (np.cos(w * b + ph) - np.cos(w * a + ph)))

    def _int_sq(a, b):
        cross = -(2.0 * c * amp / w) * (np.cos(w * b + ph)
                                        - np.cos(w * a + ph))
        square = (amp * amp) * (0.5 * (b - a)
                                - (np.sin(2 * (w * b + ph))
                                   - np.sin(2 * (w * a + ph))) / (4.0 * w))
        return c * c * (b - a) + cross + square

    return TimeFunction(
        fn=lambda t: c + amp * np.sin(w * np.asarray(t, dtype=float) + ph),
        integral=_int,
        square_integral=_int_sq,
    )


def as_time_function(obj) -> TimeFunction:
    if isinstance(obj, TimeFunction):
        return obj
    if callable(obj):
        return TimeFunction(obj)
    if isinstance(obj, (int, float)):
        return constant(float(obj))
    raise TypeError(f"cannot interpret {obj!r} as a function of time")


def integral_of(tf: TimeFunction, a, b, *, name: str = "function"):
    """Integral of ``tf`` over ``[a, b]``, elementwise for array ends."""
    if tf.integral is not None:
        return tf.integral(a, b)
    return integrate(tf.fn, a, b, epsabs=QUAD_ABS_TOL,
                     what=f"{name} integral")


def integral_of_square(tf: TimeFunction, a, b, *, name: str = "function"):
    """Integral of ``tf**2`` over ``[a, b]``, elementwise for array ends."""
    if tf.square_integral is not None:
        return tf.square_integral(a, b)
    return integrate(lambda t: np.asarray(tf.fn(t), dtype=float) ** 2, a, b,
                     epsabs=QUAD_ABS_TOL, what=f"squared {name} integral")


# ---------------------------------------------------------------------------
# jump size laws
# ---------------------------------------------------------------------------

class JumpLaw:
    """Marker base class for jump size distributions."""

    __slots__ = ()


@dataclass(frozen=True)
class DiracJump(JumpLaw):
    """All jumps share one deterministic size."""

    location: float

    def cf(self, u):
        return np.exp(1j * np.asarray(u, dtype=float) * self.location)

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return np.full(int(size), float(self.location))


@dataclass(frozen=True)
class LatticeJumps(JumpLaw):
    """Jump sizes on the integer lattice with an explicit pmf."""

    values: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        vals = [float(v) for v in self.values]
        if len(vals) == 0 or len(vals) != len(self.probs):
            raise ValueError("values and probs must be non-empty and aligned")
        if any(not float(v).is_integer() for v in vals):
            raise ValueError("lattice jump values must be integers")
        probs = np.asarray(self.probs, dtype=float)
        if not np.all(probs >= 0):
            raise ValueError("lattice jump masses must be non-negative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(
                f"lattice jump masses sum to {probs.sum()!r}, expected 1")
        object.__setattr__(self, "values", tuple(int(v) for v in vals))
        object.__setattr__(self, "probs", tuple(float(p) for p in probs))

    def cf(self, u):
        u = np.asarray(u, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        return np.exp(1j * np.multiply.outer(u, vals)) @ probs

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        probs = np.asarray(self.probs, dtype=float)
        probs = probs / probs.sum()
        return gen.choice(np.asarray(self.values, dtype=float),
                          p=probs, size=int(size))


@dataclass(frozen=True)
class ContinuousJumps(JumpLaw):
    """Jump sizes with a Lebesgue density, held as its closed form.

    ``kind`` is ``"uniform"``, uniform on ``[a, b]``, or ``"gaussian"``,
    normal with mean ``a`` and sd ``b``.  The mass of an interval, the
    effective support, characteristic function and sampler follow from
    these three fields, as does every k-fold jump sum in
    :mod:`lecamjd.laws`.  The parameters must be finite, the support (a
    Gaussian's mean plus/minus 12 sds) a proper interval of finite width,
    and the density's peak finite, or ``ValueError`` names the parameter
    at fault.
    """

    kind: str
    a: float
    b: float

    def __post_init__(self):
        if self.kind not in ("uniform", "gaussian"):
            raise ValueError(f"unknown continuous jump law {self.kind!r}: "
                             "expected 'uniform' or 'gaussian'")
        a, b = float(self.a), float(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        uniform = self.kind == "uniform"
        if not (uniform or b > 0.0):
            raise ValueError(f"sd must be positive (got {b!r})")
        lo, hi = self.support  # NaN or infinite parameters fail here
        if not (lo < hi and hi - lo < math.inf):
            raise ValueError(
                f"need finite lo < hi, hi - lo finite (got lo={a!r}, hi={b!r})"
                if uniform else "mean +/- 12 sd must be a proper interval "
                f"of finite width (got mean={a!r}, sd={b!r})")
        name, scale = ("hi - lo", b - a) if uniform else ("sd", b)
        if (1.0 if uniform else _gauss._INV_SQRT_2PI) / scale == math.inf:
            raise ValueError(f"{name} = {scale!r} is too small: the "
                             "density's peak overflows")

    @property
    def support(self) -> tuple[float, float]:
        """Uniform: ``(a, b)``; Gaussian: the mean plus/minus 12 sds."""
        if self.kind == "uniform":
            return self.a, self.b
        return self.a - 12.0 * self.b, self.a + 12.0 * self.b

    def mass(self, lo, hi):
        """Mass on ``[lo, hi]``: a clipped length over ``b - a``, or a Phi
        difference taken in the tail on the window's side of the mean, so
        a window far in either tail keeps its relative accuracy."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        a, b = self.a, self.b
        if self.kind == "uniform":
            return np.maximum((np.minimum(hi, b) - np.maximum(lo, a))
                              / (b - a), 0.0)[()]
        with np.errstate(over="ignore"):
            z_lo, z_hi = (lo - a) / b, (hi - a) / b
        s = np.where(z_hi > -z_lo, -1.0, 1.0)
        cdf = _gauss.std_cdf(np.stack((s * z_hi, s * z_lo)))
        return np.maximum(s * (cdf[0] - cdf[1]), 0.0)[()]

    def cf(self, u):
        u = np.asarray(u, dtype=float)
        a, b = self.a, self.b
        if self.kind == "gaussian":
            return np.exp(1j * u * a - 0.5 * u ** 2 * b * b)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = ((np.exp(1j * u * b) - np.exp(1j * u * a))
                    / (1j * u * (b - a)))
        return np.where(u == 0, 1.0 + 0.0j, vals)

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        draw = gen.normal if self.kind == "gaussian" else gen.uniform
        return draw(self.a, self.b, int(size))


def uniform_jumps(lo: float, hi: float) -> ContinuousJumps:
    """Uniform jump sizes on ``[lo, hi]``."""
    return ContinuousJumps("uniform", lo, hi)


def gaussian_jumps(mean: float, sd: float) -> ContinuousJumps:
    """Normally distributed jump sizes."""
    return ContinuousJumps("gaussian", mean, sd)


# ---------------------------------------------------------------------------
# smoothness class, grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolderClassParams:
    """Holder smoothness class, given by its exponent."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")


@dataclass(frozen=True)
class Grid:
    """Sorted observation times ``0 = t_0 < t_1 < ... < t_n``."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("grid needs at least two observation times")
        if not np.isfinite(t).all():
            raise ValueError("grid times must be finite")
        if t[0] != 0.0:
            raise ValueError("grid must start at t_0 = 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("grid times must be strictly increasing")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    @classmethod
    def uniform(cls, horizon: float, n: int) -> "Grid":
        n = operator.index(n)
        if n < 1:
            raise ValueError(f"a grid needs at least one interval (got n={n})")
        return cls(np.linspace(0.0, float(horizon), n + 1))

    @property
    def n(self) -> int:
        return self.times.size - 1

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @cached_property
    def deltas(self) -> np.ndarray:
        """Interval lengths ``np.diff(times)``, computed once, read-only."""
        arr = np.diff(self.times)
        arr.setflags(write=False)
        return arr

    @property
    def mesh(self) -> float:
        return float(np.max(self.deltas))


# ---------------------------------------------------------------------------
# model specification
# ---------------------------------------------------------------------------

def _finite_on(fn, probe, name: str, what: str) -> np.ndarray:
    """``fn`` at the times ``probe``; the first non-finite value raises
    ``ValueError`` naming it and its time."""
    values = np.asarray(fn(probe), dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{name}({probe[bad[0]]:g}) = "
                         f"{values.flat[bad[0]]:g} is not a finite {what}")
    return values


@dataclass(frozen=True)
class ModelSpec:
    """Full description of one observation experiment.

    Parameters
    ----------
    drift, sigma, intensity:
        Time functions (callables or :class:`TimeFunction`) for the drift,
        the volatility factor, and the jump intensity.  The effective noise
        volatility is ``epsilon_n * sigma(t)``.
    epsilon_n:
        Positive noise level multiplying ``sigma``.
    jump_law:
        Distribution of a single jump size.
    horizon:
        Terminal time ``T_n``.
    initial:
        Starting value of the path.
    intensity_max:
        Optional upper bound for the intensity, refused if the intensity
        exceeds it at a probe point; when missing, samplers find one by a
        dense scan with a safety factor.

    ``intensity_bound``, the samplers' dominating rate, is derived once per
    spec, never passed.
    """

    drift: TimeFunction
    sigma: TimeFunction
    epsilon_n: float
    intensity: TimeFunction
    jump_law: JumpLaw
    horizon: float
    initial: float = 0.0
    intensity_max: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "drift", as_time_function(self.drift))
        object.__setattr__(self, "sigma", as_time_function(self.sigma))
        object.__setattr__(self, "intensity",
                           as_time_function(self.intensity))
        if not 0.0 < self.epsilon_n < math.inf:
            raise ValueError("epsilon_n must be positive and finite")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        if not math.isfinite(self.initial):
            raise ValueError("initial must be finite")
        if (self.intensity_max is not None
                and not 0.0 <= self.intensity_max < math.inf):
            raise ValueError("intensity_max must be finite and non-negative")
        if not isinstance(self.jump_law, JumpLaw):
            raise TypeError("jump_law must be a JumpLaw instance")
        probe = np.linspace(0.0, self.horizon, 257)
        sig = _finite_on(self.sigma, probe, "sigma", "volatility")
        if np.any(sig <= 0):
            raise ValueError("sigma must be positive on [0, horizon]")
        lam = _finite_on(self.intensity, probe, "intensity", "rate")
        if np.any(lam < -1e-12):
            raise ValueError("intensity must be non-negative on [0, horizon]")
        cap, peak = self.intensity_max, float(lam.max())
        if cap is not None and peak > cap * (1.0 + 1e-12):  # as thinning
            raise ValueError(f"intensity_max {cap:g} is below the "
                             f"intensity's peak {peak:g} on [0, horizon]")

    def sigma_n(self, t):
        return self.epsilon_n * np.asarray(self.sigma(t), dtype=float)

    @cached_property
    def intensity_bound(self) -> float:
        """Dominating rate: ``intensity_max`` if declared, else the maximum
        of a 4097-point scan of the intensity, padded by 5 %.  The scan
        runs once per spec, however many paths are sampled from it; a
        non-finite scan value raises ``ValueError`` naming its time."""
        if self.intensity_max is not None:
            return float(self.intensity_max)
        lam = _finite_on(self.intensity, np.linspace(0.0, self.horizon, 4097),
                         "intensity", "rate")
        peak = float(lam.max())
        return max(peak, 0.0) * 1.05  # __post_init__ lets rates dip to -1e-12


@dataclass(frozen=True)
class IncrementSummaries:
    """Per-interval summary integrals of a grid (arrays of length n).

    Scalars stand for a grid of one interval.  ``m`` must be finite,
    ``sigma2`` finite and positive, and ``lam`` finite and non-negative.
    ``alpha`` is derived from ``lam`` and ``sigma`` from ``sigma2``, never
    passed.
    """

    m: np.ndarray
    sigma2: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        for name in ("m", "sigma2", "lam"):
            arr = np.array(getattr(self, name), dtype=float, ndmin=1)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        m, sigma2, lam = self.m, self.sigma2, self.lam
        if sigma2.size != m.size or lam.size != m.size or not m.size:
            raise ValueError("summary arrays must share a positive length")
        if not (abs(m) < math.inf).all():
            raise ValueError("m must be finite")
        if not ((sigma2 > 0) & (sigma2 < math.inf)).all():
            raise ValueError("sigma2 must be finite and positive")
        if not ((lam >= 0) & (lam < math.inf)).all():
            raise ValueError("lam must be finite and non-negative")

    @cached_property
    def alpha(self) -> np.ndarray:
        """One-jump probabilities ``lam * exp(-lam)`` by ``math.exp`` per
        element: numpy's SIMD ``exp`` may differ in the last bit, and these
        equal the k = 1 terms of the exact laws' Poisson series."""
        arr = np.array([lam * math.exp(-lam) for lam in self.lam.tolist()])
        arr.setflags(write=False)
        return arr

    @cached_property
    def sigma(self) -> np.ndarray:
        """Noise sds ``np.sqrt(sigma2)``, computed once, read-only."""
        arr = np.sqrt(self.sigma2)
        arr.setflags(write=False)
        return arr

    @property
    def n(self) -> int:
        return self.m.size

    def interval(self, i: int) -> "IncrementSummaries":
        """Interval ``i`` as a grid of one."""
        return IncrementSummaries(self.m[[i]], self.sigma2[[i]],
                                  self.lam[[i]])

    def scalars(self) -> tuple[float, float, float]:
        """``(m, sigma2, lam)`` of a grid of one interval."""
        if self.n != 1:
            raise ValueError(f"summaries of {self.n} intervals describe "
                             f"{self.n} laws; pass one interval")
        return float(self.m[0]), float(self.sigma2[0]), float(self.lam[0])


def build_increment_summaries(spec: ModelSpec, grid: Grid) -> IncrementSummaries:
    """Integrate drift, squared noise volatility, and intensity per interval.

    A grid past the model horizon is a ``ValueError``; a non-finite,
    negative or vanishing summary is a ``FloatingPointError``."""
    if grid.horizon > spec.horizon + 1e-12:
        raise ValueError(f"grid runs to {grid.horizon:g}, past the model "
                         f"horizon {spec.horizon:g}")
    a, b = grid.times[:-1], grid.times[1:]
    # closed forms may overflow to inf or NaN (inf * 0): the checks name those
    with np.errstate(over="ignore", invalid="ignore"):
        m = integral_of(spec.drift, a, b, name="drift")
        sigma2 = spec.epsilon_n ** 2 * integral_of_square(spec.sigma, a, b,
                                                          name="sigma")
        lam = integral_of(spec.intensity, a, b, name="intensity")
    for bad, what in ((~np.isfinite(m), "non-finite drift integral"),
                      (~np.isfinite(sigma2), "non-finite noise variance"),
                      (~np.isfinite(lam), "non-finite intensity mass"),
                      (lam < -1e-12, "negative intensity mass"),
                      (sigma2 <= 0, "vanishing noise variance")):
        if np.any(bad):
            i = int(np.argmax(bad))
            raise FloatingPointError(f"{what} on [{a[i]:g}, {b[i]:g}]")
    return IncrementSummaries(m=m, sigma2=sigma2, lam=np.maximum(lam, 0.0))


def piecewise_drift(f, grid: Grid):
    """Right-endpoint piecewise-constant approximation of ``f`` on the grid.

    The returned function takes the value ``f(t_i)`` on ``[t_{i-1}, t_i)``
    and ``f(T_n)`` at the terminal time.
    """
    tf = as_time_function(f)
    times = grid.times
    fvals = np.asarray(tf(times), dtype=float)

    def fbar(t):
        t_arr = np.asarray(t, dtype=float)
        idx = np.searchsorted(times, t_arr, side="right")
        idx = np.clip(idx, 1, times.size - 1)
        out = np.where(t_arr >= times[-1], fvals[-1], fvals[idx])
        return float(out) if out.ndim == 0 else out

    return fbar


def check_sigma_log_derivative(sigma, c1: float, grid: Grid) -> bool:
    """Check ``|d/dt log sigma(t)| <= c1`` at interval midpoints.

    Uses a central finite difference with step ``mesh / 100`` and a 1e-8
    slack on the comparison.  Raises if the probed volatility is not
    positive.
    """
    tf = as_time_function(sigma)
    h = grid.mesh / 100.0
    mids = 0.5 * (grid.times[:-1] + grid.times[1:])
    hi = np.asarray(tf(mids + h), dtype=float)
    lo = np.asarray(tf(mids - h), dtype=float)
    if np.any(hi <= 0) or np.any(lo <= 0):
        raise ValueError("sigma must stay positive near the grid midpoints")
    deriv = (np.log(hi) - np.log(lo)) / (2.0 * h)
    return bool(np.max(np.abs(deriv)) <= c1 + 1e-8)
