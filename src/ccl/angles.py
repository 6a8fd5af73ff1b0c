"""Relative angle measures of simplicial cones.

A cone's measure depends only on the Gram matrix of its generators, and
every method reads only that matrix.  Every measure is exact by default.
A point x of the cone's span lies in the cone when y = D x >= 0, where the
rows of D are the unit inward facet normals.  For a standard Gaussian x, y
has the correlation matrix R, the Gram matrix of those normals, which is
the cone's Gram matrix inverted and normalized to unit diagonal, so the
measure is the orthant probability P_n(R).  Dimensions 0 and 1 use the
conventions.  Up to n = 3, P_n = 2^-n + sum over i < j of
asin(r_ij) / (2^(n-1) pi): the arc for n = 2 and Girard's spherical excess
for n = 3.  Dimension 4 uses Plackett's reduction (R. L. Plackett,
Biometrika 41, 1954; D. R. Childs, Biometrika 54, 1967).  Along
R(t) = I + t (R - I), dP_4/drho_ij is phi_2(0, 0; t rho_ij) times the
orthant probability P_2 of the other two coordinates given y_i = y_j = 0,
whose correlation is a ratio of 3x3 minors of R(t).  So P_4(R) = 2^-4 plus
a 1-D integral over t in [0, 1], taken by Gauss-Legendre quadrature with
no matrix inverse.  Dimension 5 needs no integral of its own: for odd n,
P(y >= 0) = P(y <= 0), and inclusion-exclusion over the coordinates turns
that into 2 P_n = sum over S != {1..n} of (-1)^|S| P_|S|(R_SS), the conic
Gauss-Bonnet relation (P. McMullen 1975; Amelunxen, Lotz, McCoy and Tropp
2014).  With the closed forms up to |S| = 3 it reads
P_5 = -1/8 - sum over i < j of asin(r_ij) / (8 pi) + 1/2 sum over |Q| = 4
of P_4(R_QQ), and the five principal 4x4 blocks of a cone go through one
stacked quadrature.  The nodes come from Newton's method on the Legendre
recurrence, computed on first use and cached.  The quadrature takes a
stack of cones; each cone doubles its node count until two successive
values agree.

Seeded Monte Carlo over Gaussian directions inside the cone's span (the
paper's method) runs for dimensions 4 and above when, and only when,
``McConfig.samples`` is given.  A cone of dimension 6 or more, which no
supported group produces, has no exact method, so measuring one needs a
sample count.  The congruence class of a cone is fixed by the Gram matrix
of its unit generators.  ``congruence_key`` rounds that matrix and
minimizes it over generator orderings; Monte Carlo measures the canonical
cone the key describes (generators: the rows of the Cholesky factor of the
key's Gram matrix), so congruent cones get one estimate.  Each class draws
its own sample stream: chunk j comes from the child seed
SeedSequence(entropy=seed, spawn_key=(*key words, j)), whose mixing hashes
every bit of the key, so estimates of distinct classes are independent
while all cones of one class share one estimate and its error.  A sample
is a hit when all its facet coordinates are >= 0; boundary points have
probability zero.  Results are memoized by (key, seed, samples); they are
pure functions of those, so the memo never makes a result depend on call
order.  The exact methods are pure functions of the cone itself and are
not memoized: the key's rounding would move a measure by up to 3e-10.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateConeError, InvalidArgumentError, NumericalError
from .cones import SimplicialCone

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

# Distinct (class, seed, samples) estimates kept by the memo.  A verifier
# suite measures at most a few hundred classes.
MEMO_SIZE = 4096

# Multiplier of the verifiers' Monte Carlo pass rule |lhs - rhs| <= 4 sigma.
MC_SIGMAS = 4.0

# Gauss-Legendre nodes N of the first integral of the exact dimension 4-5
# method (a 5-cone's five 4-dimensional integrals all take N), which
# evaluates it again with 2N nodes as its own check and keeps doubling N
# until the two values agree.  The error falls geometrically with N, at
# a rate set by how close R(t) comes to singular: the worst case the suite
# measures, the H4 dual chamber (max |rho| 0.991), needs 48 nodes for
# 3e-11; A5 needs 16 for 5e-16.  Every suite cone converges at 64/128.
PLACKETT_NODES = 64

# Largest gap between the N- and 2N-node integrals accepted as converged.
# Over every cone of dimension 4-5 the suite measures, the gap is at most
# 5.9e-14 (the H4 dual chamber), and it is far below the exact pass rule's
# 1e-9, so a result that passes it cannot decide a verdict by its error.
PLACKETT_TOL = 1e-12

# Most nodes an integral is taken with: the last check compares 512 with
# 1024 nodes, and a cone that still misses PLACKETT_TOL raises
# NumericalError.  Thin cones need many: H4's 6 061 Waldspurger pieces
# (1 - w)C all converge by 512/1024, 98 of them only there, and of 200
# cones on standard-normal generators in R^5, 156 converge at 64/128 and
# 196 by 512/1024.  A 5-cone is judged by its combined value, so its
# slowest 4-dimensional block sets its node count.
PLACKETT_MAX_NODES = 1024

# (4-cone, node) pairs the quadrature evaluates at once; a 5-cone counts
# as its five 4-dimensional blocks.  Each pair holds 90 minor entries of 8
# bytes, so a chunk's temporaries stay near 10 MB however large the stack.
# On H4's 6 061 Waldspurger pieces, 2^12 to 2^16 pairs take 0.8-1.3 s (2^13
# the least) and a single chunk 3.2 s with a peak of 1 GB (one BLAS thread
# on a 2-core shared guest).
QUADRATURE_ROWS = 2 ** 13

# Most Newton steps per set of Legendre roots; from the cosine guess, no
# degree up to PLACKETT_MAX_NODES takes more than 4.
NEWTON_STEPS = 10


def count_nonnegative(points: np.ndarray, facet_coords: np.ndarray) -> int:
    """Number of rows of ``points`` whose inner product with every row of
    ``facet_coords`` is >= 0."""
    # (k, d) @ (d, m) then reduce over axis 0: several times faster than
    # (m, d) @ (d, k) reduced over axis 1 for the tall point arrays used here.
    # The counting checks' ``verify._count_inside`` shares this layout: it
    # reduces over the leading facet axis of (facets, points, cones)
    # coordinates.
    return int(np.count_nonzero((facet_coords @ points.T >= 0).all(axis=0)))


class AngleMethod(Enum):
    EXACT0 = "Exact0"
    EXACT1 = "Exact1"
    EXACT2_ARC = "Exact2Arc"
    EXACT3_GIRARD = "Exact3Girard"
    EXACT_PLACKETT = "ExactPlackett"
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
    """Monte Carlo sampling configuration.

    ``samples`` None measures dimensions 0-5 exactly and rejects higher
    ones; a count measures dimensions 4 and above by Monte Carlo with that
    many samples.
    """

    samples: int | None = None
    seed: int = 42

    def __post_init__(self):
        if self.samples is not None and self.samples < 1_000:
            raise InvalidArgumentError("samples must be >= 1000")
        if not 0 <= self.seed < 2 ** 64:
            raise InvalidArgumentError("seed must fit in 64 bits")


DEFAULT_MC = McConfig()


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


def _unit_diagonal(gram: np.ndarray) -> np.ndarray:
    """The Gram matrix of the same vectors made unit length, for a Gram
    matrix or a stack of them."""
    scale = np.sqrt(np.diagonal(gram, axis1=-2, axis2=-1))
    return gram / (scale[..., :, None] * scale[..., None, :])


def congruence_key(c: SimplicialCone) -> bytes:
    """Key of the cone's congruence class: the Gram matrix of its unit
    generators, rounded to GRAM_DECIMALS and minimized lexicographically
    (row-major) over generator orderings, as float64 bytes."""
    gram = _unit_diagonal(c.gram)
    perms = _permutations(c.dim)
    cands = np.round(gram[perms[:, :, None], perms[:, None, :]], GRAM_DECIMALS)
    cands = cands.reshape(len(perms), -1) + 0.0      # one key for -0.0 and 0.0
    return cands[np.lexsort(cands.T[::-1])[0]].tobytes()


@functools.lru_cache(maxsize=MEMO_SIZE)
def _measure_class(key: bytes, mc: McConfig) -> AngleEstimate:
    """Monte Carlo measure of the canonical cone of a congruence class;
    chunk j of its samples draws from the child seed
    (mc.seed, *key words, j)."""
    k = math.isqrt(len(key) // 8)                    # k x k float64 entries
    gram = np.frombuffer(key).reshape(k, k)
    try:
        gens = np.linalg.cholesky(gram)              # rows realize the Gram matrix
    except np.linalg.LinAlgError as exc:
        raise DegenerateConeError(
            "rounded generator Gram matrix is not positive definite") from exc
    facet_coords = np.linalg.inv(gens).T             # (g_i, d_j) = delta_ij
    # the key as 32-bit words: SeedSequence hashes them with the chunk index
    stream = tuple(np.frombuffer(key, dtype=np.uint32).tolist())
    full, rem = divmod(mc.samples, CHUNK_SIZE)
    hits = 0
    for j, size in enumerate([CHUNK_SIZE] * full + ([rem] if rem else [])):
        ss = np.random.SeedSequence(entropy=mc.seed, spawn_key=(*stream, j))
        rng = np.random.Generator(np.random.PCG64(ss))
        hits += count_nonnegative(rng.standard_normal((size, k)), facet_coords)
    return AngleEstimate(hits / mc.samples, _binomial_stderr(hits, mc.samples),
                         AngleMethod.MONTE_CARLO, mc.samples, key)


def _measure_mc(c: SimplicialCone, mc: McConfig) -> AngleEstimate:
    """Monte Carlo measure of the cone's congruence class with
    ``mc.samples`` samples, which must be a count."""
    return _measure_class(congruence_key(c), mc)


def _normal_correlation(gram: np.ndarray) -> np.ndarray:
    """Gram matrix of a cone's unit inward facet normals, from the Gram
    matrix of its generators (or a stack of either): the inverse of the
    Gram matrix (D D^T = Gram^-1 for the dual basis D = Gram^-1 G),
    normalized to unit diagonal.

    The inverse is formed as X^T X from the inverse X of the Gram matrix's
    Cholesky factor.  Over random rotations of the H4 chamber, whose
    measure 1/14400 is a small difference of Plackett's terms, that keeps
    the measure within 4e-13 relative; inverting the Gram matrix directly
    spreads it over 1.4e-12 to 2.9e-12, depending on the BLAS kernel."""
    X = np.linalg.inv(np.linalg.cholesky(gram))
    return _unit_diagonal(np.swapaxes(X, -1, -2) @ X)


def _orthant(r: np.ndarray, n: int) -> np.ndarray:
    """Orthant probability P_n, n <= 3, from the correlations r_ij, i < j,
    along the last axis of r: 2^-n + sum of asin(r_ij) / (2^(n-1) pi), the
    arc for n = 2 and Girard's spherical excess for n = 3."""
    return 2.0 ** -n + np.arcsin(r).sum(axis=-1) / (2.0 ** (n - 1) * math.pi)


def _legendre(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Legendre polynomial P_m and its derivative at x, by the
    three-term recurrence P_{k+1} = x P_k + k/(k+1) (x P_k - P_{k-1})."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, m):
        xp = x * p1
        p0, p1 = p1, xp + (xp - p0) * (k / (k + 1))
    return p1, m * (x * p1 - p0) / (x * x - 1.0)


@functools.cache
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre nodes, ascending, and weights on [0, 1].

    The roots x >= 0 of P_m come from Newton's method on the recurrence,
    started from the cosine guess with Tricomi's first correction; the
    others are their mirror images.  The iteration stops after a step no
    larger than the unit roundoff.  The weights are 1 / ((1 - x^2) P_m'^2),
    where P_m' comes from that step's evaluation, moved to the final roots
    to first order by Legendre's equation (1 - x^2) P_m'' = 2 x P_m' -
    m (m + 1) P_m."""
    k = np.arange(1, (m + 1) // 2 + 1)
    x = np.cos(math.pi * (k - 0.25) / (m + 0.5)) * (1.0 - (1.0 - 1.0 / m) / (8.0 * m * m))
    for _ in range(NEWTON_STEPS):
        p, dp = _legendre(m, x)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= np.finfo(float).eps:
            break
    else:
        raise NumericalError(f"Legendre roots of degree {m} did not converge")
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    dp -= step * (2.0 * x * dp - m * (m + 1) * p) / one_minus_x2
    w = 1.0 / (one_minus_x2 * dp * dp)
    # x descends from near 1 to the middle root, which odd m has at 0
    nodes = np.concatenate([(1.0 - x) / 2.0, ((1.0 + x) / 2.0)[::-1][m % 2:]])
    weights = np.concatenate([w, w[::-1][m % 2:]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@functools.cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs i < j of 0..n-1 and, per pair, the other n - 2 indices."""
    ij = np.array(list(itertools.combinations(range(n), 2)))
    rest = np.array([[r for r in range(n) if r not in p] for p in ij])
    return ij[:, 0], ij[:, 1], rest


@functools.cache
def _cofactors() -> tuple[np.ndarray, ...]:
    """Index arrays of the conditional correlations for n = 4.

    Given y_i = y_j = 0, the other two coordinates a < b have the
    covariance P_SS^-1, P = R(t)^-1, so their correlation is
    -P_ab / sqrt(P_aa P_bb).  P is the cofactor matrix of R(t) over
    det R(t) > 0, so the 3x3 minors M of R(t) stand in for it:
    r_ab = (-1)^(a + b + 1) M_ab / sqrt(M_aa M_bb), where M_xy leaves out
    row x and column y.

    Returns the flat indices into the 4 x 4 matrix of each distinct
    minor's entries, shape (3, 3, minors), and per pair i < j the minors
    M_aa, M_bb and M_ab and the sign."""
    _, _, rest = _pairs(4)
    # M_xx at index x, then M_xy = M_yx for x < y, taken as M_yx
    minors = [(x, x) for x in range(4)] + list(itertools.combinations(range(4), 2))
    index = np.array([[[r * 4 + c for c in range(4) if c != x]
                       for r in range(4) if r != y] for x, y in minors])
    a, b = rest.T
    ab = np.array([minors.index(p) for p in map(tuple, rest.tolist())])
    return np.moveaxis(index, 0, -1), a, b, ab, (-1.0) ** (a + b + 1)


def _det(m: np.ndarray) -> np.ndarray:
    """Determinants of 3x3 matrices, elementwise over the trailing axes of
    m, shape (3, 3, ...)."""
    return (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))


def _quadrature(R: np.ndarray, m: int) -> np.ndarray:
    """P_n(R) of each correlation matrix of the stack R, shape
    (cones, n, n) with n = 4 or 5, with m Gauss-Legendre nodes."""
    n = R.shape[-1]
    i, j, _ = _pairs(n)
    if n == 5:
        # P_5 from the five principal 4 x 4 blocks R_QQ of each cone, in
        # one stack (see the module docstring)
        Q = np.array(list(itertools.combinations(range(5), 4)))
        blocks = R[:, Q[:, :, None], Q[:, None, :]].reshape(-1, 4, 4)
        sub = _quadrature(blocks, m).reshape(len(R), 5).sum(axis=1)
        asin = np.arcsin(R[:, i, j]).sum(axis=1)
        return -0.125 - asin / (8.0 * math.pi) + 0.5 * sub
    chunk = max(1, QUADRATURE_ROWS // m)
    if len(R) > chunk:
        return np.concatenate([_quadrature(R[k:k + chunk], m)
                               for k in range(0, len(R), chunk)])
    index, aa, bb, ab, sign = _cofactors()
    t, w = _gauss_legendre(m)
    eye = np.eye(4)
    X = eye + t[:, None, None] * (R - eye)[:, None]      # R(t): (cones, nodes, 4, 4)
    # entry-major, so that each entry of every minor is one contiguous block
    X = X.reshape(-1, 16).T
    minors = _det(np.take(X, index, axis=0))
    # correlation of the other two coordinates given y_i = y_j = 0, per
    # pair and node: (pairs, cones x nodes)
    r = sign[:, None] * minors[ab] / np.sqrt(minors[aa] * minors[bb])
    inner = _orthant(r[..., None], 2)
    rho = R[:, i, j].T[:, :, None]                       # (pairs, cones, 1)
    density = rho / (2.0 * math.pi * np.sqrt(1.0 - (t * rho) ** 2))
    f = (density * inner.reshape(density.shape)).sum(axis=0)
    return 2.0 ** -4 + (f * w).sum(axis=-1)


def _measure_plackett(R: np.ndarray) -> np.ndarray:
    """Orthant probabilities P_n(R) of a stack of facet-normal correlation
    matrices, shape (cones, n, n) with n = 4 or 5, by Plackett's reduction
    (see the module docstring).  Each cone doubles its node count from
    PLACKETT_NODES until two successive values agree within
    PLACKETT_TOL; past PLACKETT_MAX_NODES nodes, NumericalError."""
    todo = np.arange(len(R))
    values = np.empty(len(R))
    m = PLACKETT_NODES
    lo = _quadrature(R, m)
    while True:
        hi = _quadrature(R[todo], 2 * m)
        done = np.abs(lo - hi) <= PLACKETT_TOL           # False when not finite
        values[todo[done]] = hi[done]
        if done.all():
            return values
        if 4 * m > PLACKETT_MAX_NODES:
            k = np.flatnonzero(~done)[0]
            raise NumericalError(
                f"Plackett quadrature did not converge on cone {todo[k]}: "
                f"{float(lo[k])!r} with {m} nodes, {float(hi[k])!r} with {2 * m}")
        todo, lo, m = todo[~done], hi[~done], 2 * m


def measure(c: SimplicialCone, mc: McConfig = DEFAULT_MC) -> AngleEstimate:
    """Relative angle measure of a cone within its own span.

    The zero cone has measure 1 by convention (it occupies all of its
    zero-dimensional span); rays are exactly 1/2; dimensions 2 and 3 use
    the arc and spherical-excess formulas.  Dimensions 4 and 5 use Plackett's
    reduction (dimension 5 through its four-dimensional blocks) when
    ``mc.samples`` is None, its default, and are estimated
    by Monte Carlo on the cone's congruence class with ``mc.samples``
    samples otherwise.  Higher dimensions have no exact method: they are
    estimated when ``mc.samples`` is a count and raise InvalidArgumentError
    when it is None.
    """
    k = c.dim
    if k == 0:
        return AngleEstimate(1.0, 0.0, AngleMethod.EXACT0)
    if k == 1:
        return AngleEstimate(0.5, 0.0, AngleMethod.EXACT1)
    if k <= 3:
        i, j, _ = _pairs(k)
        value = float(_orthant(_normal_correlation(c.gram)[i, j], k))
        method = AngleMethod.EXACT2_ARC if k == 2 else AngleMethod.EXACT3_GIRARD
        return AngleEstimate(value, 0.0, method)
    if mc.samples is not None:
        return _measure_mc(c, mc)
    if k > 5:
        raise InvalidArgumentError(
            f"a cone of dimension {k} has no exact measure: set McConfig.samples")
    value = float(_measure_plackett(_normal_correlation(c.gram)[None])[0])
    return AngleEstimate(value, 0.0, AngleMethod.EXACT_PLACKETT)
