"""One verifier per identity: each check returns a VerificationReport.

Measure-valued identities compare a floating-point left-hand side against
an exact integer fraction; the pass rule is |lhs - rhs| <= 1e-9 when every
cone involved was measured exactly, and 4 * combined standard error when
Monte Carlo was involved.  The combined standard error follows how the
estimates were sampled: estimates of one congruence class are one draw, so
their coefficients add before their stderr is applied, and only distinct
classes, which draw independent streams, add variances.  Count-valued
identities must hit their expected integer on every generic trial, with no
tolerance.

Genericity is enforced by margin-and-resample: a trial point that lands
within the configured relative margin of any reflection hyperplane or any
facet of a cone under test is discarded and redrawn deterministically.
Points are drawn and classified in blocks.  A block asks the sampler's
PCG64 stream for exactly the trials still missing (at most
``BLOCK_ENTRIES`` float entries of classification work), as one
``standard_normal((m, d))`` or ``uniform(size=(m, d))`` call, which yields
the same variates in the same order as m one-point draws.  Rejected rows
are counted in order, and the next block asks for the rest.  So a check
consumes exactly the variates, and reports exactly the counts and
resamples, of drawing one point at a time, whatever the block size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .angles import DEFAULT_MC, MC_SIGMAS, AngleEstimate, McConfig, measure
from .cones import chamber, dual, face, quotient, quotient_dual
from .errors import GenericityError, InvalidArgumentError, NumericalError
from .groups import (Group, normalizer_of_span, parabolic_subgroup,
                     regular_count, span_carriers, subspace_orbits)
from .linalg import DEFAULT_TOL, Subspace, ToleranceConfig
from .roots import RootSystem

__all__ = ["VerificationReport", "GenericPointSampler", "verify_curious",
           "verify_main", "verify_waldspurger_partition",
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
        d = {
            "identity_name": self.identity_name,
            "group": self.group,
            "k": self.k,
            "lhs": self.lhs,
            "rhs_numerator": self.rhs_numerator,
            "rhs_denominator": self.rhs_denominator,
            "abs_error": self.abs_error,
            "combined_stderr": self.combined_stderr,
            "tolerance_rule": self.tolerance_rule,
            "passed": self.passed,
            "seed": self.seed,
            "samples": self.samples,
            "per_term_breakdown": [list(row) for row in self.per_term_breakdown],
        }
        return d


# Largest number of float64 entries (points x cones x facets) one block's
# classification may hold in a temporary: 512 KiB.  It bounds the peak
# memory of the largest checks (H4 covering and oplus test 14 400 cones, so
# their blocks hold one point) and decides nothing else: the stream
# definition makes results independent of the block size.
BLOCK_ENTRIES = 1 << 16

# Largest entry of the residual |(1 - w) x - v|, relative to |v|, accepted
# from the Waldspurger preimage x = (1 - w)^-1 v.  (1 - w) is invertible for
# a fixed-point-free w, and its inverse is computed once per group; over
# every supported group residuals stay below 2e-15 |v| (1.7e-15 for H4; 100
# uniform points, seed 42), so a larger one means the inverse failed.
SOLVE_RESIDUAL_TOL = 1e-8


@dataclass
class GenericPointSampler:
    """Deterministic margin-and-resample point source.

    :meth:`sample` draws points in blocks from one PCG64 stream and keeps
    the classifications of the generic ones; a run of more than
    ``resample_limit`` consecutive rejected points raises
    :class:`GenericityError`.
    """

    seed: int = 42
    resample_limit: int = 100
    generic_margin: float = DEFAULT_TOL.generic_margin
    resamples: int = field(default=0, init=False)

    def __post_init__(self):
        self._rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed)))

    def sample(self, draw, classify, trials: int,
               entries_per_point: int = 1) -> np.ndarray:
        """Classifications of the first ``trials`` generic points, in order.

        ``draw(rng, m)`` returns m points as rows; it must draw them with
        one array call, so that m rows take the variates of m one-row
        draws.  ``classify(points)`` returns one int per row, -1 for a point
        to resample.  ``entries_per_point`` is the float entries classify
        holds per point (cones x facets); it sizes the blocks.  A check of
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
            over = np.flatnonzero(gaps > self.resample_limit)
            if over.size:
                i = over[0]
                self.resamples += int(gaps[:i].sum()) + self.resample_limit + 1 - run
                raise GenericityError(
                    f"no generic point found within {self.resample_limit} resamples")
            self.resamples += m - ok.size
            run = int(gaps[-1])
            kept.append(counts[ok])
            missing -= ok.size
        return np.concatenate(kept)


def _off_hyperplanes(points: np.ndarray, roots: np.ndarray,
                     margin: float) -> np.ndarray:
    """Per row: True when the point is farther than the relative margin
    from every reflection hyperplane."""
    return (np.abs(points @ roots.T).min(axis=1)
            > margin * np.linalg.norm(points, axis=1))


def _count_inside(coords: np.ndarray, band) -> np.ndarray:
    """Number of cones containing each point, from its facet coordinates.

    ``coords`` has shape (points, cones, facets): each point's inner
    products with each cone's inward facet normals.  A cone counts when
    every entry of its row exceeds ``band``.  A point gets -1 (resample)
    when any of its entries lies within ``band`` of zero.  ``band`` is a
    scalar or an array broadcast against ``coords``.
    """
    near = (np.abs(coords) <= band).any(axis=(1, 2))
    inside = np.count_nonzero((coords > band).all(axis=2), axis=1)
    return np.where(near, -1, inside)


def _cone_classifier(normals: np.ndarray, margin: float, roots=None):
    """Block classify for the cones with unit inward facet normals
    ``normals`` (cones, facets, n): the number of cones containing each
    point, or -1 for a point within the relative margin of a facet or,
    when ``roots`` is given, of a reflection hyperplane."""
    cones, facets, n = normals.shape
    frame = normals.reshape(cones * facets, n).T

    def classify(points):
        coords = (points @ frame).reshape(len(points), cones, facets)
        band = margin * np.linalg.norm(points, axis=1)[:, None, None]
        counts = _count_inside(coords, band)
        if roots is not None:
            counts[~_off_hyperplanes(points, roots, margin)] = -1
        return counts

    return classify


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


# ---------------------------------------------------------------------------
# measure-valued identities


def verify_curious(rs: RootSystem, g: Group, mc: McConfig = DEFAULT_MC,
                   tol: ToleranceConfig = DEFAULT_TOL) -> VerificationReport:
    """sigma(C*) = (number of fixed-point-free elements) / |W|."""
    est = measure(dual(chamber(rs), tol), mc, tol)
    rhs = (g.counts_by_fixed_dim[0], g.order)
    return _measure_report(
        "curious", rs, None, est.value, rhs, est.stderr, mc.seed, est.samples,
        [("sigma(dual chamber)", est.value, est.stderr)])


def verify_main(rs: RootSystem, g: Group, k: int, mc: McConfig = DEFAULT_MC,
                tol: ToleranceConfig = DEFAULT_TOL) -> VerificationReport:
    """sum over k-dim chamber faces F of sigma(F) * sigma((C/F)*) equals
    |W^k| / |W|."""
    n = rs.n
    if not 0 <= k <= n:
        raise InvalidArgumentError(f"k must be in 0..{n}")
    ch = chamber(rs)
    lhs, samples = 0.0, 0
    terms: list[tuple[float, AngleEstimate]] = []
    breakdown = []
    for I in itertools.combinations(range(n), k):
        a = measure(face(ch, I, tol), mc, tol)
        b = measure(quotient_dual(ch, I, tol), mc, tol)
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


def verify_equiv_measure(rs: RootSystem, g: Group, cls, mc: McConfig = DEFAULT_MC,
                         tol: ToleranceConfig = DEFAULT_TOL) -> VerificationReport:
    """Sum of sigma over one equivalence class of chamber faces equals
    |W_F| / |N_F| for the class representative."""
    cls = sorted(tuple(sorted(int(i) for i in J)) for J in cls)
    ch = chamber(rs)
    ests = [measure(face(ch, J, tol), mc, tol) for J in cls]
    lhs = sum(est.value for est in ests)
    samples = max(est.samples for est in ests)
    breakdown = [(f"sigma(F_{_fmt_subset(J)})", est.value, est.stderr)
                 for J, est in zip(cls, ests)]
    rep = cls[0]
    rhs = (len(parabolic_subgroup(g, rep)), len(normalizer_of_span(g, rep)))
    return _measure_report("equiv-measure", rs, len(rep), lhs, rhs,
                           _combined_stderr((1.0, est) for est in ests),
                           mc.seed, samples, breakdown)


def verify_class_sum(rs: RootSystem, g: Group, k: int,
                     seed: int = 0) -> VerificationReport:
    """Exact rational identity: sum over face-equivalence classes of
    |W^reg_F| / |N_F| equals |W^k| / |W|.

    Entirely deterministic; ``seed`` is only echoed into the report.
    """
    n = rs.n
    if not 0 <= k <= n:
        raise InvalidArgumentError(f"k must be in 0..{n}")
    total = Fraction(0)
    breakdown = []
    for cls in subspace_orbits(g, k):
        rep = cls[0]
        sub = parabolic_subgroup(g, rep)
        term = Fraction(regular_count(sub, n - k), len(normalizer_of_span(g, rep)))
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
                                 sampler: GenericPointSampler | None = None,
                                 trials: int = DEFAULT_TRIALS,
                                 tol: ToleranceConfig = DEFAULT_TOL) -> VerificationReport:
    """Every generic interior point of C* lies in (1 - w) C-interior for
    exactly one group element w (necessarily fixed-point free)."""
    sampler = sampler or GenericPointSampler(generic_margin=tol.generic_margin)
    n, margin = rs.n, sampler.generic_margin
    alpha = rs.simple_roots
    regular = np.flatnonzero(g.fixed_dims == 0)
    one_minus = np.eye(n) - g.matrix_stack[regular]
    inverse = np.linalg.inv(one_minus)               # once per group

    def draw(rng, m):
        return rng.uniform(0.0, 1.0, size=(m, n))

    def classify(U):
        V = U @ alpha
        counts = np.full(len(U), -1)
        generic = (U.min(axis=1) > margin) & _off_hyperplanes(V, rs.all_roots, margin)
        if generic.any():
            rhs = V[generic].T                       # (n, points)
            x = inverse @ rhs                        # (regular, n, points)
            resid = np.abs(one_minus @ x - rhs).max(axis=(0, 1))
            if (resid > SOLVE_RESIDUAL_TOL * np.linalg.norm(rhs, axis=0)).any():
                raise NumericalError("linear solve residual too large")
            x = x.transpose(2, 0, 1)                 # (points, regular, n)
            counts[generic] = _count_inside(
                x @ alpha.T, margin * np.linalg.norm(x, axis=2, keepdims=True))
        return counts

    counts = sampler.sample(draw, classify, trials, len(regular) * n)
    return _count_report(
        "waldspurger", rs, None, 1, counts, sampler.seed, trials,
        [("regular_elements", float(len(regular)), 0.0),
         ("resamples", float(sampler.resamples), 0.0)])


def verify_covering_count(rs: RootSystem, g: Group,
                          sampler: GenericPointSampler | None = None,
                          trials: int = DEFAULT_TRIALS,
                          tol: ToleranceConfig = DEFAULT_TOL) -> VerificationReport:
    """A generic point of V is covered by exactly |W^0| of the |W| dual
    chamber copies w C*."""
    sampler = sampler or GenericPointSampler(generic_margin=tol.generic_margin)
    n, margin = rs.n, sampler.generic_margin
    dc = dual(chamber(rs), tol)
    omega_hat = dc.dual_basis / np.linalg.norm(dc.dual_basis, axis=1, keepdims=True)
    # facet normals of w C* are w omega_hat: (|W|, n, n)
    normals = omega_hat @ np.transpose(g.matrix_stack, (0, 2, 1))
    expected = g.counts_by_fixed_dim[0]

    def draw(rng, m):
        return rng.standard_normal((m, n))

    counts = sampler.sample(draw, _cone_classifier(normals, margin, rs.all_roots),
                            trials, g.order * n)
    return _count_report(
        "covering", rs, None, expected, counts, sampler.seed, trials,
        [("resamples", float(sampler.resamples), 0.0)])


def _pairs_spanning(rs: RootSystem, g: Group, I) -> list[tuple[int, tuple[int, ...]]]:
    """All pairs (element index, subset J) with w . span(F_J) = span(F_I)."""
    return [(int(w), J) for J in itertools.combinations(range(rs.n), len(I))
            for w in np.flatnonzero(span_carriers(g, I, J))]


def verify_face_oplus_covering(rs: RootSystem, g: Group, I,
                               sampler: GenericPointSampler | None = None,
                               trials: int = DEFAULT_TRIALS,
                               tol: ToleranceConfig = DEFAULT_TOL) -> VerificationReport:
    """A generic point of V is covered by |W^reg_U| of the full-dimensional
    cones w(F_J + orthogonal dual quotient) whose face part spans U."""
    sampler = sampler or GenericPointSampler(generic_margin=tol.generic_margin)
    n, margin = rs.n, sampler.generic_margin
    I = tuple(sorted(int(i) for i in I))
    k = len(I)
    pairs = _pairs_spanning(rs, g, I)
    ch = chamber(rs)

    # generator matrix of F_J + (C/F_J)* is weights[J] stacked with alpha[not J]
    base: dict[tuple[int, ...], np.ndarray] = {}
    for J in {J for _, J in pairs}:
        rest = [j for j in range(n) if j not in J]
        base[J] = np.vstack([rs.fundamental_weights[list(J)], ch.dual_basis[rest]])
    gens = np.array([base[J] @ g.matrix_stack[w].T for w, J in pairs])
    duals = np.linalg.inv(np.transpose(gens, (0, 2, 1)))  # rows = facet normals
    duals /= np.linalg.norm(duals, axis=2, keepdims=True)

    expected = regular_count(parabolic_subgroup(g, I), n - k)

    def draw(rng, m):
        return rng.standard_normal((m, n))

    counts = sampler.sample(draw, _cone_classifier(duals, margin, rs.all_roots),
                            trials, len(pairs) * n)
    return _count_report(
        "oplus", rs, k, expected, counts, sampler.seed, trials,
        [(f"I={_fmt_subset(I)} pairs", float(len(pairs)), 0.0),
         ("resamples", float(sampler.resamples), 0.0)])


# ---------------------------------------------------------------------------
# decomposition / quotient structure


def _pieces_in_span(rs: RootSystem, g: Group, I) -> dict[tuple[int, ...], list[int]]:
    """The distinct chamber faces w . F_J spanning span(F_I), as indices w
    by face type J.  A face is a coset w W_J (W_J fixes F_J); its shortest
    element keeps every simple root outside J positive and, as enumeration
    is by word length, has the smallest index in the coset."""
    # every root has |(beta, omega_1 + ... + omega_n)| >= 1: no sign is close to 0
    positive = rs.all_roots @ rs.fundamental_weights.sum(axis=0) > 0
    pieces: dict[tuple[int, ...], list[int]] = {}
    for J in itertools.combinations(range(rs.n), len(I)):
        ws = np.flatnonzero(span_carriers(g, I, J, within=positive))
        if ws.size:
            pieces[J] = ws.tolist()
    return pieces


def verify_face_decomposition(rs: RootSystem, g: Group, I,
                              mc: McConfig = DEFAULT_MC,
                              sampler: GenericPointSampler | None = None,
                              trials: int = DEFAULT_TRIALS,
                              tol: ToleranceConfig = DEFAULT_TOL) -> VerificationReport:
    """The distinct chamber faces lying in U = span(F_I) tile U: their
    measures sum to 1 and a generic point of U sits inside exactly one.
    Each piece w . F_J is congruent to F_J, which is measured once."""
    sampler = sampler or GenericPointSampler(generic_margin=tol.generic_margin)
    n, margin = rs.n, sampler.generic_margin
    I = tuple(sorted(int(i) for i in I))
    k = len(I)

    if k == 0:
        # U = {0}: the single face is the zero cone, measure 1 by convention
        return _measure_report(
            "decomposition", rs, 0, 1.0, (1, 1), 0.0, sampler.seed, 0,
            [("zero cone", 1.0, 0.0)], rule_suffix="; unique containment trivial")

    pieces = _pieces_in_span(rs, g, I)
    ch = chamber(rs)
    faces = {J: face(ch, J, tol) for J in pieces}
    by_type = {J: measure(f, mc, tol) for J, f in faces.items()}
    ests = [by_type[J] for J, ws in pieces.items() for _ in ws]
    lhs = sum(est.value for est in ests)
    samples = max(est.samples for est in by_type.values())
    breakdown = [(f"I={_fmt_subset(I)}", float(len(I)), 0.0)]
    breakdown += [(f"piece {i}", est.value, est.stderr)
                  for i, est in enumerate(ests)]

    U = Subspace.from_spanning(rs.fundamental_weights[list(I)], ambient_dim=n)
    B = U.orthonormal_basis
    # orthogonal maps send facet normals to facet normals: (p, k, n)
    duals = np.concatenate([
        faces[J].dual_basis @ np.transpose(g.matrix_stack[ws], (0, 2, 1))
        for J, ws in pieces.items()])
    duals = duals / np.linalg.norm(duals, axis=2, keepdims=True)

    def draw(rng, m):
        return rng.standard_normal((m, k)) @ B

    containments = sampler.sample(draw, _cone_classifier(duals, margin),
                                  trials, len(duals) * k)
    bad = int(np.count_nonzero(containments != 1))
    breakdown.append(("containment_failures", float(bad), 0.0))
    breakdown.append(("num_pieces", float(len(ests)), 0.0))
    return _measure_report(
        "decomposition", rs, k, lhs, (1, 1),
        _combined_stderr((1.0, est) for est in ests),
        sampler.seed, samples, breakdown, extra_ok=(bad == 0),
        rule_suffix="; and every generic point of U in exactly one piece")


def verify_parabolic_quotient(rs: RootSystem, g: Group, I,
                              mc: McConfig = DEFAULT_MC,
                              sampler: GenericPointSampler | None = None,
                              trials: int = DEFAULT_TRIALS,
                              tol: ToleranceConfig = DEFAULT_TOL) -> VerificationReport:
    """The projected chamber C/F is a fundamental cone for the face fixator
    acting on span(F)-perp, and sigma((C/F)*) = |W^reg_F| / |W_F|."""
    sampler = sampler or GenericPointSampler(generic_margin=tol.generic_margin)
    n, margin = rs.n, sampler.generic_margin
    I = tuple(sorted(int(i) for i in I))
    d = n - len(I)
    sub = parabolic_subgroup(g, I)
    ch = chamber(rs)
    breakdown = [(f"I={_fmt_subset(I)}", float(len(I)), 0.0)]

    # (a) the |W_F| translates of C/F tile span(F)-perp
    bad = 0
    if d > 0:
        q = quotient(ch, I, tol)
        B = q.span.orthonormal_basis
        mats = sub.matrices()
        # dual bases of the translates: orthogonal maps send duals to duals
        duals = np.einsum("kj,mij->mki", q.dual_basis, mats)
        duals = duals / np.linalg.norm(duals, axis=2, keepdims=True)

        def draw(rng, m):
            return rng.standard_normal((m, d)) @ B

        containments = sampler.sample(draw, _cone_classifier(duals, margin),
                                      trials, len(duals) * d)
        bad = int(np.count_nonzero(containments != 1))
        breakdown.append(("tiling_trials", float(trials), 0.0))
    breakdown.append(("tiling_failures", float(bad), 0.0))

    # (b) sigma((C/F)*) equals the fixed-point-free fraction of W_F
    est = measure(quotient_dual(ch, I, tol), mc, tol)
    rhs = (regular_count(sub, d), len(sub))
    breakdown.append(("sigma(quotient dual)", est.value, est.stderr))
    return _measure_report(
        "parabolic", rs, len(I), est.value, rhs, est.stderr, mc.seed,
        est.samples, breakdown, extra_ok=(bad == 0),
        rule_suffix="; and the W_F translates of C/F tile span(F)-perp")


# ---------------------------------------------------------------------------
# full suite

SUITE_IDENTITIES = ("curious", "main", "waldspurger", "covering", "oplus",
                    "decomposition", "parabolic", "equiv-measure", "class-sum")


def run_suite(rs: RootSystem, g: Group, identities=SUITE_IDENTITIES,
              k: int | None = None, mc: McConfig = DEFAULT_MC,
              trials: int = DEFAULT_TRIALS, seed: int | None = None,
              tol: ToleranceConfig = DEFAULT_TOL) -> list[VerificationReport]:
    """Run the requested verifiers over their full parameter range.

    ``k`` restricts the k-indexed identities to a single value in 0..n when
    given.  ``trials`` must be at least 1, even for identities that draw
    no point.  Every sampling verifier gets a fresh sampler with the same
    seed, so the output is independent of which identities run together.
    """
    seed = mc.seed if seed is None else seed
    n = rs.n
    if k is not None and not 0 <= k <= n:
        raise InvalidArgumentError(f"k must be in 0..{n}")
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    ks = range(n + 1) if k is None else [k]
    subsets = [J for r in ks for J in itertools.combinations(range(n), r)]

    def new_sampler():
        return GenericPointSampler(seed=seed, generic_margin=tol.generic_margin)

    reports: list[VerificationReport] = []
    for name in identities:
        if name == "curious":
            reports.append(verify_curious(rs, g, mc, tol))
        elif name == "main":
            reports.extend(verify_main(rs, g, kk, mc, tol) for kk in ks)
        elif name == "waldspurger":
            reports.append(verify_waldspurger_partition(rs, g, new_sampler(),
                                                        trials, tol))
        elif name == "covering":
            reports.append(verify_covering_count(rs, g, new_sampler(), trials, tol))
        elif name == "oplus":
            reports.extend(
                verify_face_oplus_covering(rs, g, J, new_sampler(), trials, tol)
                for J in subsets)
        elif name == "decomposition":
            reports.extend(
                verify_face_decomposition(rs, g, J, mc, new_sampler(), trials, tol)
                for J in subsets)
        elif name == "parabolic":
            reports.extend(
                verify_parabolic_quotient(rs, g, J, mc, new_sampler(), trials, tol)
                for J in subsets)
        elif name == "equiv-measure":
            for kk in ks:
                reports.extend(verify_equiv_measure(rs, g, cls, mc, tol)
                               for cls in subspace_orbits(g, kk))
        elif name == "class-sum":
            reports.extend(verify_class_sum(rs, g, kk, seed=seed) for kk in ks)
        else:
            raise InvalidArgumentError(f"unknown identity {name!r}")
    return reports
