"""Relative angle measures of simplicial cones.

Dimensions 0-3 are exact (conventions/arc/Girard); dimension 4 and above
fall back to seeded Monte Carlo over Gaussian directions inside the cone's
span.

A cone's measure depends only on its congruence class, which the Gram
matrix of its unit generators determines.  ``congruence_key`` rounds that
matrix and minimizes it over generator orderings; Monte Carlo measures the
canonical cone the key describes (generators: the rows of the Cholesky
factor of the key's Gram matrix), so congruent cones get one estimate.
Each class draws its own sample stream: chunk j comes from the child seed
SeedSequence(entropy=seed, spawn_key=(*key words, j)), whose mixing hashes
every bit of the key, so estimates of distinct classes are independent
while all cones of one class share one estimate and its error.  Results
are memoized by (key, seed, samples, eps); they are pure functions of
those, so the memo never makes a result depend on call order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateConeError, InvalidArgumentError
from .cones import SimplicialCone
from .linalg import DEFAULT_TOL, ToleranceConfig

__all__ = ["AngleMethod", "AngleEstimate", "McConfig", "measure",
           "count_nonnegative", "congruence_key"]

# Samples per chunk.  Part of the sample stream's definition: changing it
# changes every Monte Carlo estimate for a fixed seed.
CHUNK_SIZE = 65_536

# Decimals kept of each unit-generator Gram entry in a congruence key.  Gram
# entries computed for congruent cones agree to about 1e-15, so congruent
# cones share a key; cones whose entries differ by less than 1e-9 have
# measures that differ by far less than any Monte Carlo stderr.  Rounding
# only decides which cones share an estimate: a class split in two gets two
# independent estimates, whose variances the verifiers add, so no choice
# here can make a verdict dishonest.
GRAM_DECIMALS = 9

# Distinct (class, seed, samples, eps) estimates kept by the memo.  A
# verifier suite measures at most a few hundred classes.
MEMO_SIZE = 4096

# Multiplier of the verifiers' Monte Carlo pass rule |lhs - rhs| <= 4 sigma.
MC_SIGMAS = 4.0


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
    """A relative angle measure; stderr is 0 exactly for exact methods.

    ``key`` is the congruence key of the measured class for Monte Carlo
    estimates and None for exact ones: estimates with one key are one
    draw, so their errors are identical.
    """

    value: float
    stderr: float
    method: AngleMethod
    samples: int = 0
    key: bytes | None = None

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise InvalidArgumentError(f"angle measure {self.value} outside [0, 1]")
        if self.stderr < 0.0:
            raise InvalidArgumentError("stderr must be >= 0")
        if self.method is not AngleMethod.MONTE_CARLO and self.stderr != 0.0:
            raise InvalidArgumentError("exact methods must report stderr 0")
        if self.method is not AngleMethod.MONTE_CARLO and self.key is not None:
            raise InvalidArgumentError("exact methods carry no congruence key")


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo sampling configuration."""

    samples: int = 1_000_000
    seed: int = 42

    def __post_init__(self):
        if self.samples < 1_000:
            raise InvalidArgumentError("samples must be >= 1000")
        if not 0 <= self.seed < 2 ** 64:
            raise InvalidArgumentError("seed must fit in 64 bits")


DEFAULT_MC = McConfig()


def _chunked_count(count_fn, dim: int, mc: McConfig,
                   stream: tuple[int, ...]) -> int:
    """Sum count_fn(points) over deterministic per-chunk Gaussian draws;
    chunk j draws from the child seed (mc.seed, *stream, j)."""
    full, rem = divmod(mc.samples, CHUNK_SIZE)
    total = 0
    for j, size in enumerate([CHUNK_SIZE] * full + ([rem] if rem else [])):
        ss = np.random.SeedSequence(entropy=mc.seed, spawn_key=(*stream, j))
        rng = np.random.Generator(np.random.PCG64(ss))
        total += count_fn(rng.standard_normal((size, dim)))
    return total


def _binomial_stderr(hits: int, samples: int) -> float:
    """Standard error of the hit fraction hits / samples.

    With no hits (or no misses) the plug-in p(1 - p) / N is 0, which would
    claim an exact result.  There the stderr is z / (N + z^2) with
    z = MC_SIGMAS instead: the Wilson score interval at z is then
    [0, z^2 / (N + z^2)] (or its mirror), and the pass rule's z-sigma
    range reaches exactly its far end.
    """
    if 0 < hits < samples:
        p = hits / samples
        return math.sqrt(p * (1.0 - p) / samples)
    return MC_SIGMAS / (samples + MC_SIGMAS ** 2)


@functools.cache
def _permutations(k: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(k))))


def congruence_key(c: SimplicialCone) -> bytes:
    """Key of the cone's congruence class: the Gram matrix of its unit
    generators, rounded to GRAM_DECIMALS and minimized lexicographically
    (row-major) over generator orderings, as float64 bytes."""
    unit = c.generators / np.linalg.norm(c.generators, axis=1, keepdims=True)
    gram = unit @ unit.T
    perms = _permutations(c.dim)
    cands = np.round(gram[perms[:, :, None], perms[:, None, :]], GRAM_DECIMALS)
    cands = cands.reshape(len(perms), -1) + 0.0      # one key for -0.0 and 0.0
    return cands[np.lexsort(cands.T[::-1])[0]].tobytes()


@functools.lru_cache(maxsize=MEMO_SIZE)
def _measure_class(key: bytes, k: int, mc: McConfig, eps: float) -> AngleEstimate:
    """Monte Carlo measure of the canonical cone of a congruence class."""
    gram = np.frombuffer(key).reshape(k, k)
    try:
        gens = np.linalg.cholesky(gram)              # rows realize the Gram matrix
    except np.linalg.LinAlgError as exc:
        raise DegenerateConeError(
            "rounded generator Gram matrix is not positive definite") from exc
    facet_coords = np.linalg.inv(gens).T             # (g_i, d_j) = delta_ij
    # the key as 32-bit words: SeedSequence hashes them with the chunk index
    stream = tuple(np.frombuffer(key, dtype=np.uint32).tolist())
    hits = _chunked_count(
        lambda pts: count_nonnegative(pts, facet_coords, eps), k, mc, stream)
    return AngleEstimate(hits / mc.samples, _binomial_stderr(hits, mc.samples),
                         AngleMethod.MONTE_CARLO, mc.samples, key)


def _measure_mc(c: SimplicialCone, mc: McConfig, eps: float) -> AngleEstimate:
    return _measure_class(congruence_key(c), c.dim, mc, eps)


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
    by Monte Carlo on the cone's congruence class.  ``force_monte_carlo``
    routes low-dimensional cones through the MC path (used by the
    cross-method consistency checks).
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
