"""One verifier per identity: each check returns a VerificationReport.

Measure-valued identities compare a floating-point left-hand side against
an exact integer fraction; the pass rule is |lhs - rhs| <= 1e-9 when every
cone involved was measured exactly, and 4 * combined standard error when
Monte Carlo was involved.  The combined standard error follows how the
estimates were sampled: estimates of one congruence class are one draw, so
their coefficients add before their stderr is applied, and only distinct
classes, which draw independent streams, add variances.  Congruent
cones enter a sum once, with their count as coefficient: decomposition
sums and reports its pieces w . F_J by face type J.  Count-valued
identities must hit their expected integer on every generic trial, with no
tolerance.

The five counting checks (waldspurger, covering, oplus, decomposition,
parabolic) ask one question: how many of a set of cones contain a point.
Each builds the unit inward facet normals of its cones as one (cones,
facets, n) stack, draws its points in one subspace, and classifies them
with ``_cone_classifier``.  The four whose cones are translates w K make
one call of ``_translate_counts``, which builds the stack, the sampler and
the Gaussian draw; waldspurger draws in the unit cube itself.
Classification is facet-major, as in the Monte Carlo kernel, and runs one
tile of ``TILE_CONES`` cones at a time: a block's coordinates on a tile
are a (facets, points, tile) array, written into one array per block,
which ``_count_inside`` reduces over its facets only.  The hits and the
closest coordinate accumulate elementwise in (points, tile) arrays, whose
rows are reduced once per block, so a point's count is its hits summed
over the tiles.
``_translates`` stores its stacks as (n, facets, cones), so every tile the
classifier multiplies by is a view of them.

Genericity is enforced by margin-and-resample: a trial point that lands
within the root system's relative margin (``rs.tol.generic_margin``) of
any facet of a cone under test or, for a point drawn in all of V, of any
reflection hyperplane is discarded and redrawn deterministically.  Each
call of a counting check draws from a fresh :class:`GenericPointSampler`
on its own stream: the child SeedSequence(seed, spawn_key=(identity,
*subset)) of the run's seed, where identity is the check's position in
``SUITE_IDENTITIES``, as Monte Carlo classes key theirs.  So no two checks
of a run share points, its report's ``seed`` names the run's seed, and
its ``resamples`` describe the stream its points came from.
Points are drawn and classified in blocks.  A block asks the sampler's
PCG64 stream for exactly the trials still missing (at most
``BLOCK_ENTRIES`` float entries of one tile's classification), as one
``standard_normal((m, d))`` or ``uniform(size=(m, d))`` call, which yields
the same variates in the same order as m one-point draws.  Rejected rows
are counted in order, and the next block asks for the rest.  So a check
consumes exactly the variates, and reports exactly the counts and
resamples, of drawing one point at a time, whatever the block size.

Every tolerance comes from ``rs.tol``, the policy the root system was
built with, and the seed of a run from ``McConfig.seed``.  The verifiers of
one ``run_suite`` call share one :class:`Geometry`, which builds each
chamber face, quotient dual, subgroup and measure of the group on first
use, so each is built once.  ``run_suite`` reads the
identities from one table of (k-indexed?, runner) entries.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .angles import DEFAULT_MC, MC_SIGMAS, AngleEstimate, McConfig, measure
from .cones import SimplicialCone, chamber, dual, face
from .errors import GenericityError, InvalidArgumentError, NumericalError
from .groups import (Group, face_carriers, normalizer_of_span,
                     parabolic_subgroup, regular_count, subspace_orbits)
from .linalg import DEFAULT_TOL
from .roots import RootSystem

__all__ = ["VerificationReport", "GenericPointSampler", "Geometry",
           "verify_curious", "verify_main", "verify_waldspurger_partition",
           "verify_covering_count", "verify_face_oplus_covering",
           "verify_face_decomposition", "verify_parabolic_quotient",
           "verify_equiv_measure", "verify_class_sum", "run_suite",
           "SUITE_IDENTITIES"]

EXACT_TOL = 1e-9
DEFAULT_TRIALS = 100


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check."""

    identity_name: str
    group: str
    k: int | None
    lhs: float
    rhs_numerator: int
    rhs_denominator: int
    abs_error: float
    combined_stderr: float
    tolerance_rule: str
    passed: bool
    seed: int
    samples: int
    per_term_breakdown: tuple[tuple[str, float, float], ...] = ()

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["per_term_breakdown"] = [list(row) for row in self.per_term_breakdown]
        return d


# Largest number of float64 entries (points x facets x tile cones) one
# block's classification may hold in a temporary: 512 KiB, beside its two
# (points, tile) accumulators.  A block is classified one tile of cones at
# a time, so it holds at least BLOCK_ENTRIES // (facets * TILE_CONES)
# points, even when a stack has 14 400 cones (H4 covering and oplus).  It
# bounds the peak memory of the checks and decides nothing else: the
# stream definition makes results independent of the block size.
BLOCK_ENTRIES = 1 << 16

# Cones per tile: square tiles for 4 facets, so a block of a rank-4 check
# holds 128 points and 100 trials fit in one.  In-process medians of 25
# run_suite calls of waldspurger, covering, oplus and parabolic (one BLAS
# thread, 2-core guest), tiles of 128 / 256 cones against one tile per
# stack: H4 124 / 120 against 184-198 ms, F4 35 / 47 against 53-56 ms, B4
# 17 / 20 ms, A5 57 / 63 ms.  Tiles of 64 cones took H4 144 ms.
TILE_CONES = 128

# Most consecutive non-generic points the sampler redraws.
RESAMPLE_LIMIT = 100

# Largest entry of (1 - w)(1 - w)^-1 - 1 accepted for the Waldspurger
# inverses, computed once per group.  (1 - w) is invertible for a
# fixed-point-free w; over every supported group the entries stay below
# 1.2e-15 (H4), so a larger one means the inverse failed.  The residual of
# any preimage (1 - w)^-1 v is then at most n times this bound times |v|.
SOLVE_RESIDUAL_TOL = 1e-8


@dataclass
class GenericPointSampler:
    """Deterministic margin-and-resample point source.

    ``seed`` is an int or a ``np.random.SeedSequence``.  :meth:`sample`
    draws points in blocks from one PCG64 stream on it and keeps
    the classifications of the generic ones; a run of more than
    ``RESAMPLE_LIMIT`` consecutive rejected points raises
    :class:`GenericityError`.  Each call of a counting check builds its
    own, so ``resamples`` counts the rejections of that call alone.
    """

    seed: int = 42
    generic_margin: float = DEFAULT_TOL.generic_margin
    resamples: int = field(default=0, init=False)

    def __post_init__(self):
        self._rng = np.random.Generator(np.random.PCG64(self.seed))

    def sample(self, draw, classify, trials: int,
               entries_per_point: int = 1) -> np.ndarray:
        """Classifications of the first ``trials`` generic points, in order.

        ``draw(rng, m)`` returns m points as rows; it must draw them with
        one array call, so that m rows take the variates of m one-row
        draws.  ``classify(points)`` returns one int per row, -1 for a point
        to resample.  ``entries_per_point`` is the float entries classify
        holds per point (facets x tile cones); it sizes the blocks.  A check of
        no trials would pass vacuously, so ``trials`` must be at least 1.
        """
        if trials < 1:
            raise InvalidArgumentError("trials must be >= 1")
        cap = max(1, BLOCK_ENTRIES // entries_per_point)
        kept: list[np.ndarray] = []
        missing, run = trials, 0        # run: rejects since the last kept point
        while missing:
            m = min(missing, cap)
            counts = classify(draw(self._rng, m))
            ok = np.flatnonzero(counts >= 0)
            # reject runs before, between and after the kept rows; the
            # first continues the run carried over from the last block
            gaps = np.diff(ok, prepend=-1 - run, append=m) - 1
            over = np.flatnonzero(gaps > RESAMPLE_LIMIT)
            if over.size:
                i = over[0]
                self.resamples += int(gaps[:i].sum()) + RESAMPLE_LIMIT + 1 - run
                raise GenericityError(
                    f"no generic point found within {RESAMPLE_LIMIT} resamples")
            self.resamples += m - ok.size
            run = int(gaps[-1])
            kept.append(counts[ok])
            missing -= ok.size
        return np.concatenate(kept)


def _count_inside(points: np.ndarray, tiles, band) -> np.ndarray:
    """Number of cones containing each point, or -1 (resample) for a point
    whose smallest facet coordinate in absolute value lies within ``band``
    of zero.  ``band`` is a scalar or one value per point.

    ``tiles`` are (facets, n, tile) stacks of facet normals: ``points @
    tile`` is a (facets, points, tile) array, facet-major, as in
    ``count_nonnegative``, and is reduced over its facets only, slab by
    slab.  A cone counts when its smallest facet coordinate exceeds
    ``band``.  The hits and the closest coordinate in absolute value
    accumulate elementwise in (points, tile) arrays, whose rows are reduced
    once, after the last tile."""
    band = np.asarray(band).reshape(-1, 1)
    facets, _, width = tiles[0].shape
    m = len(points)
    # One coordinate buffer for every tile, whose leading entries hold each
    # tile's coordinates contiguously (the last, partial tile too), and
    # int16 hits (an entry gains at most one per tile): with a fresh array
    # per tile and intp hits, B4, F4 and A5 covering classifications
    # re-faulted 170-290 pages a call and took 0.62, 1.8 and 1.8 ms, against
    # 0.32, 1.0 and 0.9 ms.
    buffer = np.empty(facets * m * width)
    hits = np.zeros((m, width), dtype=np.int16)
    closest = np.empty((m, width))
    closest.fill(np.inf)
    for tile in tiles:
        cones = tile.shape[2]
        x = np.matmul(points, tile,
                      out=buffer[:facets * m * cones].reshape(facets, m, cones))
        hits[:, :cones] += np.minimum.reduce(x, axis=0) > band
        np.minimum(closest[:, :cones],
                   np.minimum.reduce(np.abs(x, out=x), axis=0),
                   out=closest[:, :cones])
    near = np.minimum.reduce(closest, axis=1) <= band[:, 0]
    return np.where(near, -1, np.add.reduce(hits, axis=1))


def _tile_entries(cones: int, facets: int) -> int:
    """Float entries ``_count_inside`` holds per point: one tile's
    (facets, tile) coordinates.  It sizes the sampler's blocks."""
    return facets * min(cones, TILE_CONES)


def _cone_classifier(normals: np.ndarray, margin: float, roots=None):
    """Block classify for the cones with unit inward facet normals
    ``normals`` (cones, facets, n): the number of cones containing each
    point, or -1 for a point within the relative margin of a facet or,
    when ``roots`` is given, of a reflection hyperplane.

    The stack is read as one (n, facets, cones) frame, a view of a stack
    stored facet-major, as ``_translates`` stores it, and a copy of any
    other.  Its tiles are slices of ``TILE_CONES`` cones, each a view of
    the frame, and ``_count_inside`` classifies a block of points against
    all of them."""
    cones, facets, n = normals.shape
    frame = np.ascontiguousarray(normals.transpose(2, 1, 0))
    # (facets, n, tile) views: points @ tile is (facets, points, tile)
    tiles = [frame[:, :, a:a + TILE_CONES].transpose(1, 0, 2)
             for a in range(0, cones, TILE_CONES)]

    def classify(points):
        band = margin * np.linalg.norm(points, axis=1)
        counts = _count_inside(points, tiles, band)
        if roots is not None:
            counts[np.abs(points @ roots.T).min(axis=1) <= band] = -1
        return counts

    return classify


def _translates(g: Group, blocks) -> np.ndarray:
    """Unit inward facet normals of the cones w K, as one (cones, facets, n)
    stack, from (dual basis of K, element indices of the w) pairs.  Each K's
    normals are normalized once; the elements are orthogonal, so they map
    unit normals of K to unit normals of w K.  The stack is written
    facet-major, (n, facets, cones) in memory, one product per pair, and
    returned as its transposed view, so every tile of ``_cone_classifier``
    is a view of it."""
    blocks = [(duals / np.linalg.norm(duals, axis=1, keepdims=True), ws)
              for duals, ws in blocks]
    facets, n = blocks[0][0].shape
    stack = np.empty((n, facets, sum(len(ws) for _, ws in blocks)))
    a = 0
    for unit, ws in blocks:
        # (facets, n) @ (n, n, ws) -> (n, facets, ws): entry [j, f, w] is
        # the j-th coordinate of w applied to unit normal f
        np.matmul(unit, np.transpose(g.matrix_stack[ws], (1, 2, 0)),
                  out=stack[:, :, a:a + len(ws)])
        a += len(ws)
    return stack.transpose(2, 1, 0)


def _span_basis(c: SimplicialCone) -> np.ndarray:
    """Orthonormal rows spanning the span of a cone of dimension >= 1:
    L^-1 G for the Cholesky factor L of its Gram matrix, as
    L^-1 G G^T L^-T = 1."""
    return np.linalg.solve(np.linalg.cholesky(c.gram), c.generators)


def _check_stream(identity: str, seed: int, I=()) -> np.random.SeedSequence:
    """The stream a counting check draws its points from: the child of
    ``seed`` keyed by the identity's position in SUITE_IDENTITIES and the
    face subset, as Monte Carlo classes key theirs."""
    return np.random.SeedSequence(
        seed, spawn_key=(SUITE_IDENTITIES.index(identity), *I))


def _translate_counts(rs: RootSystem, g: Group,
                      stream: np.random.SeedSequence, trials: int,
                      blocks, span: SimplicialCone | None = None
                      ) -> tuple[np.ndarray, int]:
    """For each of ``trials`` generic Gaussian points, the number of the
    cones w K of ``_translates(g, blocks)`` containing it, and the number
    of points resampled, drawn from a fresh sampler on ``stream``.  The
    points are drawn in the span of the cone ``span``, or in all of V when
    it is None, where points near a reflection hyperplane are resampled
    too."""
    sampler = GenericPointSampler(seed=stream, generic_margin=rs.tol.generic_margin)
    normals = _translates(g, blocks)
    cones, facets, n = normals.shape
    basis = None if span is None else _span_basis(span)
    roots = rs.all_roots if span is None else None
    d = n if basis is None else len(basis)

    def draw(rng, m):
        points = rng.standard_normal((m, d))
        return points if basis is None else points @ basis

    counts = sampler.sample(
        draw, _cone_classifier(normals, sampler.generic_margin, roots),
        trials, _tile_entries(cones, facets))
    return counts, sampler.resamples


def _pass_rule(abs_error: float, stderr: float,
               monte_carlo: bool) -> tuple[bool, str]:
    if not monte_carlo:
        return abs_error <= EXACT_TOL, f"exact: |lhs - rhs| <= {EXACT_TOL:g}"
    return (abs_error <= MC_SIGMAS * stderr,
            f"mc: |lhs - rhs| <= {MC_SIGMAS:g} * combined_stderr")


def _combined_stderr(terms) -> float:
    """Stderr of sum(coefficient * estimate) over (coefficient, estimate)
    pairs.

    Estimates sharing a congruence key are one draw with one error, so
    their coefficients add before multiplying that class's stderr; distinct
    classes are independent, so their variances add.  Exact estimates
    contribute nothing.
    """
    by_class: dict[bytes, list[float]] = {}
    for coefficient, est in terms:
        if est.key is not None:
            by_class.setdefault(est.key, [0.0, est.stderr])[0] += coefficient
    return math.sqrt(sum((c * s) ** 2 for c, s in by_class.values()))


def _measure_report(name: str, rs: RootSystem, k: int | None, lhs: float,
                    rhs: tuple[int, int], stderr: float, seed: int, samples: int,
                    breakdown, extra_ok: bool = True,
                    rule_suffix: str = "") -> VerificationReport:
    num, den = rhs  # kept unreduced so reports show the raw counts
    abs_error = abs(lhs - num / den)
    ok, rule = _pass_rule(abs_error, stderr, monte_carlo=samples > 0)
    return VerificationReport(
        identity_name=name, group=str(rs.group_type), k=k, lhs=lhs,
        rhs_numerator=num, rhs_denominator=den,
        abs_error=abs_error, combined_stderr=stderr,
        tolerance_rule=rule + rule_suffix, passed=bool(ok and extra_ok),
        seed=seed, samples=samples, per_term_breakdown=tuple(breakdown))


def _count_report(name: str, rs: RootSystem, k: int | None, expected: int,
                  counts: np.ndarray, seed: int, trials: int,
                  breakdown) -> VerificationReport:
    deviation = int(np.abs(counts - expected).max())
    return VerificationReport(
        identity_name=name, group=str(rs.group_type), k=k,
        lhs=float(deviation), rhs_numerator=expected, rhs_denominator=1,
        abs_error=float(deviation), combined_stderr=0.0,
        tolerance_rule="exact-count: every trial must equal rhs; "
                       "lhs = max |count - rhs| must be 0",
        passed=deviation == 0, seed=seed, samples=0,
        per_term_breakdown=tuple(breakdown) + (
            ("trials", float(trials), 0.0),
            ("min_count", float(counts.min()), 0.0),
            ("max_count", float(counts.max()), 0.0),
        ))


def _fmt_subset(I) -> str:
    return "{" + ",".join(str(i) for i in sorted(I)) + "}"


def _subset(I) -> tuple[int, ...]:
    return tuple(sorted(int(i) for i in I))


# ---------------------------------------------------------------------------
# chamber geometry


class Geometry:
    """The chamber geometry of one (root system, group), each piece built
    on first use and kept for the life of the object.  Every cone derives
    from ``chamber(rs)`` and carries its tolerance policy, ``rs.tol``.

    For a face subset I (a sorted tuple of generator indices): ``face(I)``
    is F_I, the face of C on the weights omega_I, and ``quotient_dual(I)``
    is (C/F_I)*, the face of the dual chamber C* on the simple roots
    alpha_rest outside I.  Their Gram matrices are the principal
    submatrices G^-1[I, I] and G[rest, rest] of the simple roots' Gram
    matrix G and its inverse.  The quotient cone C/F_I is not built: it
    lies in span(F_I)-perp, the span of (C/F_I)*, and alpha_rest are its
    facet normals.  ``parabolic(I)`` is W_I and ``normalizer(I)`` the
    elements mapping span(F_I) onto itself, as index arrays;
    ``pairs(I)`` is the ``face_carriers`` table of the elements carrying a
    face span onto span(F_I), by face type J, and ``pieces(I)`` is that
    table filtered by positivity to the shortest element of each coset;
    ``orbits(k)`` are the classes of face spans of dimension k.
    ``measure(kind, I, mc)`` measures a cone once per (kind, subset,
    McConfig).

    ``run_suite`` builds one per call and drops it when it returns; a
    verifier called without one builds its own.
    """

    def __init__(self, rs: RootSystem, g: Group):
        self.rs, self.g = rs, g
        self._memo: dict[tuple, object] = {}

    def _once(self, key: tuple, build, *args):
        if key not in self._memo:
            self._memo[key] = build(*args)
        return self._memo[key]

    @functools.cached_property
    def chamber(self) -> SimplicialCone:
        return chamber(self.rs)

    @functools.cached_property
    def dual(self) -> SimplicialCone:
        return dual(self.chamber)

    def face(self, I) -> SimplicialCone:
        return self._once(("face", I), face, self.chamber, I)

    def quotient_dual(self, I) -> SimplicialCone:
        rest = [j for j in range(self.rs.n) if j not in I]
        return self._once(("quotient_dual", I), face, self.dual, rest)

    def parabolic(self, I) -> np.ndarray:
        return self._once(("parabolic", I), parabolic_subgroup, self.g, I)

    def normalizer(self, I) -> np.ndarray:
        return self._once(("normalizer", I), normalizer_of_span, self.g, I)

    def pairs(self, I) -> dict[tuple[int, ...], np.ndarray]:
        return self._once(("pairs", I), face_carriers, self.g, I)

    def pieces(self, I) -> dict[tuple[int, ...], np.ndarray]:
        """The distinct chamber faces w . F_J spanning span(F_I), as indices
        w by face type J.  A face is a coset w W_J (W_J fixes F_J); its
        shortest element sends every simple root outside J to a positive
        root and, as enumeration is by word length, has the smallest index
        in the coset.  So the pieces of type J are the entries of
        ``pairs(I)[J]`` that do so."""
        def shortest(J, ws):
            rest = sum(1 << j for j in range(self.rs.n) if j not in J)
            ws = ws[(self._positive_images[ws] & rest) == rest]
            ws.setflags(write=False)
            return ws

        return self._once(("pieces", I), lambda: {
            J: shortest(J, ws) for J, ws in self.pairs(I).items()})

    @functools.cached_property
    def _positive_images(self) -> np.ndarray:
        # every root has |(beta, omega_1 + ... + omega_n)| >= 1: no sign is
        # close to 0.  Bit j of _positive_images[w]: w alpha_j is positive.
        positive = self.rs.all_roots @ self.rs.fundamental_weights.sum(axis=0) > 0
        return np.take(positive, self.g.simple_images) @ (1 << np.arange(self.rs.n))

    def orbits(self, k: int) -> list[list[tuple[int, ...]]]:
        return self._once(("orbits", k), subspace_orbits, self.g, k)

    def measure(self, kind: str, I, mc: McConfig) -> AngleEstimate:
        """Measure of F_I (kind "face") or of (C/F_I)* (kind
        "quotient_dual"); the dual chamber is (C/F_{})*."""
        key = ("measure", kind, I, mc)
        if key not in self._memo:
            self._memo[key] = measure(getattr(self, kind)(I), mc)
        return self._memo[key]


def _geometry(rs: RootSystem, g: Group, geometry: Geometry | None) -> Geometry:
    """``geometry``, checked to describe rs and g, or a new one when it is
    None."""
    if geometry is None:
        return Geometry(rs, g)
    if geometry.rs is not rs or geometry.g is not g:
        raise InvalidArgumentError("geometry was built for another group")
    return geometry


# ---------------------------------------------------------------------------
# measure-valued identities


def verify_curious(rs: RootSystem, g: Group, mc: McConfig = DEFAULT_MC, *,
                   geometry: Geometry | None = None) -> VerificationReport:
    """sigma(C*) = (number of fixed-point-free elements) / |W|."""
    est = _geometry(rs, g, geometry).measure("quotient_dual", (), mc)
    rhs = (g.counts_by_fixed_dim[0], g.order)
    return _measure_report(
        "curious", rs, None, est.value, rhs, est.stderr, mc.seed, est.samples,
        [("sigma(dual chamber)", est.value, est.stderr)])


def verify_main(rs: RootSystem, g: Group, k: int, mc: McConfig = DEFAULT_MC, *,
                geometry: Geometry | None = None) -> VerificationReport:
    """sum over k-dim chamber faces F of sigma(F) * sigma((C/F)*) equals
    |W^k| / |W|."""
    n = rs.n
    if not 0 <= k <= n:
        raise InvalidArgumentError(f"k must be in 0..{n}")
    geo = _geometry(rs, g, geometry)
    lhs, samples = 0.0, 0
    terms: list[tuple[float, AngleEstimate]] = []
    breakdown = []
    for I in itertools.combinations(range(n), k):
        a = geo.measure("face", I, mc)
        b = geo.measure("quotient_dual", I, mc)
        term = a.value * b.value
        # linearized: d(ab) = b da + a db
        terms += [(b.value, a), (a.value, b)]
        s = math.sqrt((a.value * b.stderr) ** 2 + (b.value * a.stderr) ** 2)
        lhs += term
        samples = max(samples, a.samples, b.samples)
        breakdown.append((f"I={_fmt_subset(I)}", term, s))
    rhs = (g.counts_by_fixed_dim[k], g.order)
    return _measure_report("main", rs, k, lhs, rhs, _combined_stderr(terms),
                           mc.seed, samples, breakdown)


def verify_equiv_measure(rs: RootSystem, g: Group, cls, mc: McConfig = DEFAULT_MC, *,
                         geometry: Geometry | None = None) -> VerificationReport:
    """Sum of sigma over one equivalence class of chamber faces equals
    |W_F| / |N_F| for the class representative."""
    cls = sorted(_subset(J) for J in cls)
    geo = _geometry(rs, g, geometry)
    ests = [geo.measure("face", J, mc) for J in cls]
    lhs = sum(est.value for est in ests)
    samples = max(est.samples for est in ests)
    breakdown = [(f"sigma(F_{_fmt_subset(J)})", est.value, est.stderr)
                 for J, est in zip(cls, ests)]
    rep = cls[0]
    rhs = (len(geo.parabolic(rep)), len(geo.normalizer(rep)))
    return _measure_report("equiv-measure", rs, len(rep), lhs, rhs,
                           _combined_stderr((1.0, est) for est in ests),
                           mc.seed, samples, breakdown)


def verify_class_sum(rs: RootSystem, g: Group, k: int, seed: int = 42, *,
                     geometry: Geometry | None = None) -> VerificationReport:
    """Exact rational identity: sum over face-equivalence classes of
    |W^reg_F| / |N_F| equals |W^k| / |W|.

    Entirely deterministic; ``seed`` is only echoed into the report.
    """
    n = rs.n
    if not 0 <= k <= n:
        raise InvalidArgumentError(f"k must be in 0..{n}")
    geo = _geometry(rs, g, geometry)
    total = Fraction(0)
    breakdown = []
    for cls in geo.orbits(k):
        rep = cls[0]
        term = Fraction(regular_count(g, geo.parabolic(rep), n - k),
                        len(geo.normalizer(rep)))
        total += term
        breakdown.append((f"class rep {_fmt_subset(rep)}", float(term), 0.0))
    rhs = Fraction(g.counts_by_fixed_dim[k], g.order)
    exact = total == rhs
    return VerificationReport(
        identity_name="class-sum", group=str(rs.group_type), k=k,
        lhs=float(total), rhs_numerator=g.counts_by_fixed_dim[k],
        rhs_denominator=g.order,
        abs_error=float(abs(total - rhs)), combined_stderr=0.0,
        tolerance_rule="exact-rational: fractions must be equal",
        passed=exact, seed=seed, samples=0, per_term_breakdown=tuple(breakdown))


# ---------------------------------------------------------------------------
# count-valued identities


def verify_waldspurger_partition(rs: RootSystem, g: Group,
                                 trials: int = DEFAULT_TRIALS, seed: int = 42, *,
                                 geometry: Geometry | None = None) -> VerificationReport:
    """Every generic interior point of C* lies in (1 - w) C-interior for
    exactly one group element w (necessarily fixed-point free).

    A point v = u alpha of C* is drawn from ``seed`` with u uniform in the
    unit cube, and resampled when a coordinate of u is within the margin
    of 0 or v is within the relative margin of a reflection hyperplane or
    of a facet of a piece (1 - w)C.  It reads only the group, so
    ``geometry`` is only checked to describe rs and g.
    """
    _geometry(rs, g, geometry)
    sampler = GenericPointSampler(seed=_check_stream("waldspurger", seed),
                                  generic_margin=rs.tol.generic_margin)
    n, margin = rs.n, sampler.generic_margin
    alpha = rs.simple_roots
    regular = np.flatnonzero(g.fixed_dims == 0)
    one_minus = np.eye(n) - g.matrix_stack[regular]
    inverse = np.linalg.inv(one_minus)               # once per group
    if (np.abs(one_minus @ inverse - np.eye(n)) > SOLVE_RESIDUAL_TOL).any():
        raise NumericalError("inverse of 1 - w has a residual too large")
    # v lies in (1 - w) C exactly when (alpha_i, (1 - w)^-1 v) > 0 for every
    # i: the rows of alpha (1 - w)^-1 are the facet normals of that piece
    normals = alpha @ inverse
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)
    pieces = _cone_classifier(normals, margin, rs.all_roots)

    def draw(rng, m):
        return rng.uniform(0.0, 1.0, size=(m, n))

    def classify(U):
        counts = pieces(U @ alpha)
        counts[U.min(axis=1) <= margin] = -1
        return counts

    counts = sampler.sample(draw, classify, trials,
                            _tile_entries(len(regular), n))
    return _count_report(
        "waldspurger", rs, None, 1, counts, seed, trials,
        [("regular_elements", float(len(regular)), 0.0),
         ("resamples", float(sampler.resamples), 0.0)])


def verify_covering_count(rs: RootSystem, g: Group,
                          trials: int = DEFAULT_TRIALS, seed: int = 42, *,
                          geometry: Geometry | None = None) -> VerificationReport:
    """A generic point of V is covered by exactly |W^0| of the |W| dual
    chamber copies w C*.  The points are drawn from ``seed``."""
    dc = _geometry(rs, g, geometry).dual
    counts, resamples = _translate_counts(
        rs, g, _check_stream("covering", seed), trials,
        [(dc.dual_basis, np.arange(g.order))])
    return _count_report(
        "covering", rs, None, g.counts_by_fixed_dim[0], counts, seed,
        trials, [("resamples", float(resamples), 0.0)])


def verify_face_oplus_covering(rs: RootSystem, g: Group, I,
                               trials: int = DEFAULT_TRIALS, seed: int = 42, *,
                               geometry: Geometry | None = None) -> VerificationReport:
    """A generic point of V is covered by |W^reg_U| of the full-dimensional
    cones w(F_J + orthogonal dual quotient) whose face part spans U.  The
    points are drawn from ``seed``."""
    I = _subset(I)
    k = len(I)
    geo = _geometry(rs, g, geometry)
    pairs = geo.pairs(I)

    # F_J + (C/F_J)* is an orthogonal sum, so its facet normals are those
    # of F_J and of (C/F_J)*, mapped by the elements w carrying span(F_J)
    # onto U
    counts, resamples = _translate_counts(
        rs, g, _check_stream("oplus", seed, I), trials, [
            (np.vstack([geo.face(J).dual_basis, geo.quotient_dual(J).dual_basis]), ws)
            for J, ws in pairs.items()])
    return _count_report(
        "oplus", rs, k, regular_count(g, geo.parabolic(I), rs.n - k), counts,
        seed, trials,
        [(f"I={_fmt_subset(I)} pairs", float(sum(map(len, pairs.values()))), 0.0),
         ("resamples", float(resamples), 0.0)])


# ---------------------------------------------------------------------------
# decomposition / quotient structure


def verify_face_decomposition(rs: RootSystem, g: Group, I,
                              mc: McConfig = DEFAULT_MC,
                              trials: int = DEFAULT_TRIALS, *,
                              geometry: Geometry | None = None) -> VerificationReport:
    """The distinct chamber faces lying in U = span(F_I) tile U: their
    measures sum to 1 and a generic point of U sits inside exactly one.
    Each piece w . F_J is congruent to F_J, which is measured once, so the
    sum and its stderr run over (count, sigma(F_J)) pairs, one breakdown
    row "count x sigma(F_J)" per face type J.  At k = 0 the one piece is
    the zero cone, of measure 1, and no point is drawn.  The points are
    drawn from ``mc.seed``."""
    I = _subset(I)
    k = len(I)
    geo = _geometry(rs, g, geometry)
    pieces = geo.pieces(I)
    terms = [(len(ws), geo.measure("face", J, mc)) for J, ws in pieces.items()]
    lhs = sum(count * est.value for count, est in terms)
    samples = max(est.samples for _, est in terms)
    breakdown = [(f"I={_fmt_subset(I)}", float(k), 0.0)]
    breakdown += [(f"{count} x sigma(F_{_fmt_subset(J)})", count * est.value,
                   count * est.stderr) for J, (count, est) in zip(pieces, terms)]

    bad = 0
    if k > 0:
        # the identity is a piece of type I, so F_I is built and spans U
        containments, _ = _translate_counts(
            rs, g, _check_stream("decomposition", mc.seed, I), trials,
            [(geo.face(J).dual_basis, ws) for J, ws in pieces.items()], geo.face(I))
        bad = int(np.count_nonzero(containments != 1))
    breakdown.append(("containment_failures", float(bad), 0.0))
    breakdown.append(("num_pieces", float(sum(count for count, _ in terms)), 0.0))
    return _measure_report(
        "decomposition", rs, k, lhs, (1, 1), _combined_stderr(terms),
        mc.seed, samples, breakdown, extra_ok=(bad == 0),
        rule_suffix="; and every generic point of U in exactly one piece")


def verify_parabolic_quotient(rs: RootSystem, g: Group, I,
                              mc: McConfig = DEFAULT_MC,
                              trials: int = DEFAULT_TRIALS, *,
                              geometry: Geometry | None = None) -> VerificationReport:
    """The projected chamber C/F is a fundamental cone for the face fixator
    acting on span(F)-perp, and sigma((C/F)*) = |W^reg_F| / |W_F|.  The
    tiling points are drawn from ``mc.seed``."""
    I = _subset(I)
    d = rs.n - len(I)
    geo = _geometry(rs, g, geometry)
    sub = geo.parabolic(I)
    breakdown = [(f"I={_fmt_subset(I)}", float(len(I)), 0.0)]

    # (a) the |W_F| translates of C/F tile span(F)-perp
    bad = 0
    if d > 0:
        # C/F lies in the span of (C/F)*, and the generators of (C/F)*,
        # the simple roots outside I, are its facet normals
        qd = geo.quotient_dual(I)
        containments, _ = _translate_counts(
            rs, g, _check_stream("parabolic", mc.seed, I), trials,
            [(qd.generators, sub)], qd)
        bad = int(np.count_nonzero(containments != 1))
        breakdown.append(("tiling_trials", float(trials), 0.0))
    breakdown.append(("tiling_failures", float(bad), 0.0))

    # (b) sigma((C/F)*) equals the fixed-point-free fraction of W_F
    est = geo.measure("quotient_dual", I, mc)
    rhs = (regular_count(g, sub, d), len(sub))
    breakdown.append(("sigma(quotient dual)", est.value, est.stderr))
    return _measure_report(
        "parabolic", rs, len(I), est.value, rhs, est.stderr, mc.seed,
        est.samples, breakdown, extra_ok=(bad == 0),
        rule_suffix="; and the W_F translates of C/F tile span(F)-perp")


# ---------------------------------------------------------------------------
# full suite


@dataclass(frozen=True)
class _SuiteRun:
    """The arguments one run_suite call gives every verifier."""

    rs: RootSystem
    g: Group
    mc: McConfig
    trials: int
    geometry: Geometry

    def call(self, verifier, *args) -> VerificationReport:
        return verifier(self.rs, self.g, *args, geometry=self.geometry)

    def subsets(self, k: int):
        return itertools.combinations(range(self.rs.n), k)


# The identities in report order: name -> (k-indexed?, runner).  A runner
# returns the reports of one k (None when not k-indexed).  It looks its
# verify_* function up when it runs, so a name wrapped after import is the
# one called.  Every counting check draws from its own fresh stream,
# keyed by mc.seed, the identity and the subset, as a standalone call with
# that seed does.
_SUITE = {
    "curious": (False, lambda r, k: [r.call(verify_curious, r.mc)]),
    "main": (True, lambda r, k: [r.call(verify_main, k, r.mc)]),
    "waldspurger": (False, lambda r, k: [
        r.call(verify_waldspurger_partition, r.trials, r.mc.seed)]),
    "covering": (False, lambda r, k: [
        r.call(verify_covering_count, r.trials, r.mc.seed)]),
    "oplus": (True, lambda r, k: [
        r.call(verify_face_oplus_covering, I, r.trials, r.mc.seed)
        for I in r.subsets(k)]),
    "decomposition": (True, lambda r, k: [
        r.call(verify_face_decomposition, I, r.mc, r.trials)
        for I in r.subsets(k)]),
    "parabolic": (True, lambda r, k: [
        r.call(verify_parabolic_quotient, I, r.mc, r.trials)
        for I in r.subsets(k)]),
    "equiv-measure": (True, lambda r, k: [
        r.call(verify_equiv_measure, cls, r.mc)
        for cls in r.geometry.orbits(k)]),
    "class-sum": (True, lambda r, k: [r.call(verify_class_sum, k, r.mc.seed)]),
}

SUITE_IDENTITIES = tuple(_SUITE)


def run_suite(rs: RootSystem, g: Group, identities=SUITE_IDENTITIES,
              k: int | None = None, mc: McConfig = DEFAULT_MC,
              trials: int = DEFAULT_TRIALS) -> list[VerificationReport]:
    """Run the requested verifiers over their full parameter range.

    ``k`` restricts the k-indexed identities to a single value in 0..n when
    given.  ``trials`` must be at least 1, even for identities that draw
    no point.  Tolerances come from ``rs.tol`` and every seed from
    ``mc.seed``.  Every counting check draws from a fresh stream keyed by
    that seed, its identity and its subset, so the output is independent of
    which identities run together and equals the standalone verifiers'
    reports.  The verifiers share one
    Geometry, so each cone, subgroup and measure is built once per call.
    """
    n = rs.n
    if k is not None and not 0 <= k <= n:
        raise InvalidArgumentError(f"k must be in 0..{n}")
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    for name in identities:
        if name not in _SUITE:
            raise InvalidArgumentError(f"unknown identity {name!r}")
    ks = range(n + 1) if k is None else [k]
    run = _SuiteRun(rs, g, mc, trials, Geometry(rs, g))
    reports: list[VerificationReport] = []
    for name in identities:
        k_indexed, runner = _SUITE[name]
        for kk in ks if k_indexed else [None]:
            reports.extend(runner(run, kk))
    return reports
