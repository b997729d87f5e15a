"""Exact-law samplers for the jump-diffusion and its companion experiments.

The continuous part of an increment is drawn exactly from its Gaussian law
(no Euler stepping, hence no discretization bias in any distance check);
jumps come from an inhomogeneous Poisson process sampled by thinning with a
dominating constant rate, ``ModelSpec.intensity_bound`` (a declared bound,
or one scan of the intensity per spec however many paths are drawn).  The
white-noise experiment is fixed by the summary integrals alone.

Randomness is supplied through :class:`RngStream`, a seed and a stream id
of 64-bit words mapped to a counter-based Philox generator.  A fresh
generator is built per call, so every sampler is a pure function of its
arguments: the same stream reproduces the same draws bitwise, and each
replication or filtered row draws from its own derived stream.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .model import Grid, IncrementSummaries, JumpLaw, ModelSpec

__all__ = [
    "RngStream",
    "PathSample",
    "sample_path",
    "sample_white_noise_increments",
    "sample_increment_batch",
    "bin_jump_sums",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Seed plus stream id; distinct streams are independent.

    The id is stored as the tuple of words ``(root, offset, ...)``; an int
    ``k`` is the id ``(k,)``, and :meth:`child` appends an offset.  The seed
    and every word must lie in [0, 2^64) (``ValueError`` otherwise), so no
    word wraps onto another.  The id becomes the ``SeedSequence`` spawn
    key: the root as numpy splits it (one 32-bit word below 2^32, two
    above), then each offset as exactly two words.  The word count's parity
    tells the root's width, so no two ids share a key.
    """

    seed: int
    stream_id: int | tuple[int, ...] = 0

    def __post_init__(self):
        sid = self.stream_id
        seed, *words = map(operator.index, (self.seed, *(
            sid if isinstance(sid, tuple) else (sid,))))
        if not words or not all(0 <= w <= _MASK64 for w in (seed, *words)):
            raise _word_error(self.seed, sid)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stream_id", tuple(words))

    def generator(self) -> np.random.Generator:
        root, *offsets = self.stream_id
        key = [root]
        for k in offsets:
            key += [k & 0xFFFF_FFFF, k >> 32]
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(key))
        return np.random.Generator(np.random.Philox(ss))

    def child(self, offset: int) -> "RngStream":
        """Derived stream: this id with ``offset`` appended.

        Only ``offset`` is checked, as the constructor would check it: the
        parent's seed and words are valid already.
        """
        k = operator.index(offset)
        if not 0 <= k <= _MASK64:
            raise _word_error(self.seed, self.stream_id + (offset,))
        out = object.__new__(RngStream)
        object.__setattr__(out, "seed", self.seed)
        object.__setattr__(out, "stream_id", self.stream_id + (k,))
        return out


def _word_error(seed, sid) -> ValueError:
    return ValueError(f"stream seed, root and each offset must lie in "
                      f"[0, 2^64) (got {seed!r}, {sid!r})")


@dataclass(frozen=True)
class PathSample:
    """Observed increments plus the simulator's jump bookkeeping.

    ``increments[i] = gaussian_parts[i] + sum of jump_sizes in
    (t_{i-1}, t_i]``; keeping the decomposition lets oracle-side statistics
    remove the jumps exactly.  Each field is a read-only view: a float
    array passed in is shared, not copied, and stays writable there.
    """

    times: np.ndarray
    increments: np.ndarray
    gaussian_parts: np.ndarray
    jump_times: np.ndarray
    jump_sizes: np.ndarray

    def __post_init__(self):
        for name in ("times", "increments", "gaussian_parts", "jump_times",
                     "jump_sizes"):
            arr = np.asarray(getattr(self, name), dtype=float).view()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.jump_times.size != self.jump_sizes.size:
            raise ValueError("jump_times and jump_sizes must align")
        if self.increments.size != self.times.size - 1:
            raise ValueError("need one increment per grid interval")


def _thinned_times(gen, intensity, lambda_max: float, horizon: float):
    """Thinning on ``gen``: candidate count, times, acceptance uniforms.

    ``lambda_max`` is a finite nonnegative ``ModelSpec.intensity_bound``;
    raises if the intensity exceeds it at a candidate.
    """
    if lambda_max == 0.0:
        return np.empty(0)
    count = int(gen.poisson(lambda_max * horizon))
    candidates = gen.uniform(0.0, horizon, count)
    candidates.sort()
    accept_u = gen.random(count)
    rates = np.asarray(intensity(candidates), dtype=float)
    if (rates > lambda_max * (1.0 + 1e-12)).any():
        t_bad = float(candidates[np.argmax(rates)])
        raise ValueError(
            f"intensity({t_bad:g}) = {float(np.max(rates)):g} exceeds the "
            f"dominating rate {lambda_max:g}")
    return candidates[accept_u * lambda_max < rates]


def bin_jump_sums(times: np.ndarray, jump_times: np.ndarray,
                  jump_sizes: np.ndarray) -> np.ndarray:
    """Sum jump sizes per grid interval, interval i owning (t_{i-1}, t_i]."""
    n = times.size - 1
    if jump_times.size == 0:
        return np.zeros(n)
    idx = times.searchsorted(jump_times, side="left") - 1
    # clamp in place: np.clip's Python wrapper costs more than both calls
    np.maximum(idx, 0, out=idx)
    np.minimum(idx, n - 1, out=idx)
    return np.bincount(idx, weights=jump_sizes, minlength=n)


def _gaussian_parts(gen, summaries: IncrementSummaries) -> np.ndarray:
    """``m + sigma * z`` for standard normal ``z``, formed in place."""
    z = gen.standard_normal(summaries.n)
    z *= summaries.sigma
    z += summaries.m
    return z


def sample_path(spec: ModelSpec, grid: Grid, summaries: IncrementSummaries,
                rng: RngStream) -> PathSample:
    """One path of the jump-diffusion experiment, observed on the grid.

    Draw order (fixed for reproducibility): Gaussian parts, Poisson
    candidate count, candidate times, acceptance uniforms, jump sizes.
    """
    if summaries.n != grid.n:
        raise ValueError("need one summary per grid interval")
    gen = rng.generator()
    gaussian = _gaussian_parts(gen, summaries)
    jump_times = _thinned_times(gen, spec.intensity, spec.intensity_bound,
                                grid.horizon)
    jump_sizes = (spec.jump_law.sample(gen, jump_times.size)
                  if jump_times.size else np.empty(0))
    increments = gaussian + bin_jump_sums(grid.times, jump_times, jump_sizes)
    return PathSample(times=grid.times, increments=increments,
                      gaussian_parts=gaussian, jump_times=jump_times,
                      jump_sizes=jump_sizes)


def sample_white_noise_increments(summaries: IncrementSummaries,
                                  rng: RngStream) -> np.ndarray:
    """Independent Gaussian increments of the white-noise experiment,
    increment i drawn from ``N(m_i, sigma_i^2)``."""
    return _gaussian_parts(rng.generator(), summaries)


def sample_increment_batch(summary: IncrementSummaries, jump_law: JumpLaw,
                           rng: RngStream, size: int) -> np.ndarray:
    """Many independent draws of a one-interval grid's exact increment law.

    Draw order: Poisson counts, all jump sizes (flat), Gaussians.  Summaries
    of more intervals raise ``ValueError``.
    """
    m, s2, lam = summary.scalars()
    if size < 1:
        raise ValueError("size must be positive")
    gen = rng.generator()
    counts = gen.poisson(lam, size)
    total = int(counts.sum())
    jump_part = np.zeros(size)
    if total:
        draws = jump_law.sample(gen, total)
        ids = np.repeat(np.arange(size), counts)
        jump_part = np.bincount(ids, weights=draws, minlength=size)
    return m + math.sqrt(s2) * gen.standard_normal(size) + jump_part
