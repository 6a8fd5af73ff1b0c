"""Relative angle measures of simplicial cones.

Dimensions 0-3 are exact (conventions/arc/Girard); dimension 4 and above
fall back to seeded Monte Carlo over Gaussian directions inside the cone's
span.  MC work is split into fixed-size chunks, chunk j drawing from a
child seed derived from (seed, j), so results are bit-identical for any
worker count.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidArgumentError
from .cones import SimplicialCone
from .linalg import DEFAULT_TOL, ToleranceConfig

__all__ = ["AngleMethod", "AngleEstimate", "McConfig", "measure",
           "mc_fraction", "count_nonnegative"]

# Samples per chunk.  Part of the sample stream's definition: changing it
# changes every Monte Carlo estimate for a fixed seed.
CHUNK_SIZE = 65_536


def count_nonnegative(points: np.ndarray, facet_coords: np.ndarray,
                      eps: float) -> int:
    """Number of rows of ``points`` whose inner product with every row of
    ``facet_coords`` is >= -eps."""
    # (k, d) @ (d, m) then reduce over axis 0: several times faster than
    # (m, d) @ (d, k) reduced over axis 1 for the tall point arrays used here.
    return int(np.count_nonzero((facet_coords @ points.T >= -eps).all(axis=0)))


class AngleMethod(Enum):
    EXACT0 = "Exact0"
    EXACT1 = "Exact1"
    EXACT2_ARC = "Exact2Arc"
    EXACT3_GIRARD = "Exact3Girard"
    MONTE_CARLO = "MonteCarlo"


@dataclass(frozen=True)
class AngleEstimate:
    """A relative angle measure; stderr is 0 exactly for exact methods."""

    value: float
    stderr: float
    method: AngleMethod
    samples: int = 0

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise InvalidArgumentError(f"angle measure {self.value} outside [0, 1]")
        if self.stderr < 0.0:
            raise InvalidArgumentError("stderr must be >= 0")
        if self.method is not AngleMethod.MONTE_CARLO and self.stderr != 0.0:
            raise InvalidArgumentError("exact methods must report stderr 0")


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo sampling configuration.

    ``workers`` only parallelizes chunk evaluation; results do not depend
    on it.
    """

    samples: int = 1_000_000
    seed: int = 42
    workers: int = 1

    def __post_init__(self):
        if self.samples < 1_000:
            raise InvalidArgumentError("samples must be >= 1000")
        if self.workers < 1:
            raise InvalidArgumentError("workers must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise InvalidArgumentError("seed must fit in 64 bits")


DEFAULT_MC = McConfig()


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _chunk_sizes(samples: int) -> list[int]:
    full, rem = divmod(samples, CHUNK_SIZE)
    return [CHUNK_SIZE] * full + ([rem] if rem else [])


def _draw_chunk(j: int, dim: int, mc: McConfig) -> np.ndarray:
    sizes = _chunk_sizes(mc.samples)
    return _chunk_rng(mc.seed, j).standard_normal((sizes[j], dim))


# One-slot cache of the full sample stream.  Verifier suites measure many
# cones of the same dimension under one McConfig; the stream depends only on
# (seed, samples, dim), so reuse is free and changes no result.
_CACHE_BYTE_LIMIT = 256 * 2 ** 20
_sample_cache_lock = threading.Lock()
_sample_cache: tuple | None = None


def _chunk_stream(dim: int, mc: McConfig) -> list[np.ndarray] | None:
    global _sample_cache
    if mc.samples * dim * 8 > _CACHE_BYTE_LIMIT:
        return None
    key = (mc.seed, mc.samples, dim)
    with _sample_cache_lock:
        if _sample_cache is not None and _sample_cache[0] == key:
            return _sample_cache[1]
    arrays = [_draw_chunk(j, dim, mc)
              for j in range(len(_chunk_sizes(mc.samples)))]
    with _sample_cache_lock:
        _sample_cache = (key, arrays)
    return arrays


def _chunked_count(count_fn, dim: int, mc: McConfig) -> int:
    """Sum count_fn(points) over deterministic per-chunk Gaussian draws."""
    stream = _chunk_stream(dim, mc)
    n_chunks = len(_chunk_sizes(mc.samples))

    def one(j: int) -> int:
        pts = stream[j] if stream is not None else _draw_chunk(j, dim, mc)
        return count_fn(pts)

    if mc.workers == 1 or n_chunks == 1:
        return sum(one(j) for j in range(n_chunks))
    with ThreadPoolExecutor(max_workers=mc.workers) as pool:
        return sum(pool.map(one, range(n_chunks)))


def mc_fraction(indicator, dim: int, mc: McConfig = DEFAULT_MC) -> tuple[float, float]:
    """Fraction of Gaussian directions in R^dim satisfying a vectorized
    indicator (an (m, dim) array -> boolean mask), with its standard error."""
    if dim < 1:
        raise InvalidArgumentError("mc_fraction requires dim >= 1")
    total = _chunked_count(lambda pts: int(np.count_nonzero(indicator(pts))), dim, mc)
    p = total / mc.samples
    return p, math.sqrt(p * (1.0 - p) / mc.samples)


def _measure_mc(c: SimplicialCone, mc: McConfig, eps: float) -> AngleEstimate:
    B = c.span.orthonormal_basis           # (k, n)
    facet_coords = c.dual_basis @ B.T      # dual basis in span coords
    total = _chunked_count(
        lambda pts: count_nonnegative(pts, facet_coords, eps), c.dim, mc)
    p = total / mc.samples
    return AngleEstimate(p, math.sqrt(p * (1.0 - p) / mc.samples),
                         AngleMethod.MONTE_CARLO, mc.samples)


def _measure_arc(c: SimplicialCone) -> float:
    g0, g1 = c.generators
    cosang = g0 @ g1 / (np.linalg.norm(g0) * np.linalg.norm(g1))
    return math.acos(min(1.0, max(-1.0, cosang))) / (2.0 * math.pi)


def _measure_girard(c: SimplicialCone) -> float:
    # Dihedral angle along the edge opposite facets i, j is
    # pi - angle(d_i, d_j) for inward facet normals d.
    D = c.dual_basis / np.linalg.norm(c.dual_basis, axis=1, keepdims=True)
    excess = -math.pi
    for i in range(3):
        for j in range(i + 1, 3):
            cosang = min(1.0, max(-1.0, D[i] @ D[j]))
            excess += math.pi - math.acos(cosang)
    return excess / (4.0 * math.pi)


def measure(c: SimplicialCone, mc: McConfig = DEFAULT_MC,
            tol: ToleranceConfig = DEFAULT_TOL,
            force_monte_carlo: bool = False) -> AngleEstimate:
    """Relative angle measure of a cone within its own span.

    The zero cone has measure 1 by convention (it occupies all of its
    zero-dimensional span); rays are exactly 1/2; dimensions 2 and 3 use
    the arc and spherical-excess formulas; higher dimensions are estimated
    by Monte Carlo.  ``force_monte_carlo`` routes low-dimensional cones
    through the MC path (used by the cross-method consistency checks).
    """
    k = c.dim
    if force_monte_carlo and k >= 1:
        return _measure_mc(c, mc, tol.eps_membership)
    if k == 0:
        return AngleEstimate(1.0, 0.0, AngleMethod.EXACT0)
    if k == 1:
        return AngleEstimate(0.5, 0.0, AngleMethod.EXACT1)
    if k == 2:
        return AngleEstimate(_measure_arc(c), 0.0, AngleMethod.EXACT2_ARC)
    if k == 3:
        return AngleEstimate(_measure_girard(c), 0.0, AngleMethod.EXACT3_GIRARD)
    return _measure_mc(c, mc, tol.eps_membership)
