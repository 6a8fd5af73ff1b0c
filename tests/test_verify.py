import dataclasses
import inspect
import itertools
import math
import statistics
from fractions import Fraction

import numpy as np
import pytest

import ccl
import ccl.verify
from ccl.angles import McConfig, _measure_class, measure
from ccl.cones import SimplicialCone, chamber
from ccl.groups import normalizer_of_span, regular_count
from ccl.linalg import DEFAULT_TOL, ToleranceConfig
from ccl.roots import SUPPORTED_TYPES
from ccl.verify import (GenericPointSampler, Geometry, run_suite,
                        verify_class_sum, verify_covering_count, verify_curious,
                        verify_equiv_measure, verify_face_decomposition,
                        verify_face_oplus_covering, verify_main,
                        verify_parabolic_quotient,
                        verify_waldspurger_partition)

MC = McConfig(samples=200_000, seed=42)


def built_with_margin(spec, margin):
    """A root system whose tolerances carry the genericity margin
    ``margin``, and its group."""
    rs = ccl.build(ccl.GroupType.parse(spec),
                   ToleranceConfig(generic_margin=margin))
    return rs, ccl.enumerate_group(rs)


# ---------------------------------------------------------------------------
# curious identity

def test_curious_a2(built):
    rs, g = built("A2")
    r = verify_curious(rs, g)
    assert r.passed and r.combined_stderr == 0.0
    assert (r.rhs_numerator, r.rhs_denominator) == (2, 6)
    assert abs(r.lhs - 1 / 3) <= 1e-12


def test_curious_b2(built):
    rs, g = built("B2")
    r = verify_curious(rs, g)
    assert r.passed
    assert (r.rhs_numerator, r.rhs_denominator) == (3, 8)
    assert abs(r.lhs - 3 / 8) <= 1e-12


def test_curious_h3_girard_vs_solomon(built):
    rs, g = built("H3")
    r = verify_curious(rs, g)
    assert r.passed
    assert (r.rhs_numerator, r.rhs_denominator) == (45, 120)
    assert abs(r.lhs - 0.375) <= 1e-9


# ---------------------------------------------------------------------------
# main identity

def test_main_k_equals_n_reduces_to_tiling(built):
    for spec in ("A2", "B3", "I2(8)"):
        rs, g = built(spec)
        r = verify_main(rs, g, rs.n)
        assert r.passed
        assert (r.rhs_numerator, r.rhs_denominator) == (1, g.order)


def test_main_k_zero_reduces_to_curious(built):
    rs, g = built("B3")
    r0 = verify_main(rs, g, 0)
    rc = verify_curious(rs, g)
    assert r0.passed
    assert abs(r0.lhs - rc.lhs) <= 1e-12
    assert r0.rhs_numerator == g.counts_by_fixed_dim[0]


def test_main_a2_k1_half(built):
    rs, g = built("A2")
    r = verify_main(rs, g, 1)
    assert r.passed
    assert abs(r.lhs - 0.5) <= 1e-12
    assert (r.rhs_numerator, r.rhs_denominator) == (3, 6)
    # two faces, each contributing 1/2 * 1/2
    terms = [row for row in r.per_term_breakdown if row[0].startswith("I=")]
    assert len(terms) == 2
    assert all(abs(t[1] - 0.25) <= 1e-12 for t in terms)


def test_main_rejects_bad_k(built):
    rs, g = built("A2")
    with pytest.raises(ccl.InvalidArgumentError):
        verify_main(rs, g, 5)


def test_main_mc_with_no_hits_is_judged_by_the_mc_rule(built):
    # at 1 000 samples no direction lands in the H4 chamber (1/14400 of
    # them): the estimate is 0 with a non-zero stderr and the 4-sigma rule
    rs, g = built("H4")
    r = verify_main(rs, g, 4, McConfig(samples=1_000))
    assert r.lhs == 0.0 and r.samples == 1_000
    assert r.combined_stderr > 0.0
    assert r.tolerance_rule.startswith("mc:")
    assert r.passed


# ---------------------------------------------------------------------------
# waldspurger partition

def test_waldspurger_constructed_witness(built):
    # v = (1 - w0) x for a chamber-interior x and regular w0: w0 must be
    # the unique witness recovered
    rs, g = built("B3")
    ch = chamber(rs)
    x = ch.generators.sum(axis=0)
    regulars = np.flatnonzero(g.fixed_dims == 0)
    w0 = g.matrix_stack[regulars[3]]
    v = (np.eye(3) - w0) @ x
    witnesses = []
    for i in regulars:
        M = np.eye(3) - g.matrix_stack[i]
        y = np.linalg.solve(M, v)
        assert np.linalg.norm(M @ y - v) <= 1e-8 * np.linalg.norm(v)
        if (ch.dual_basis @ y > 1e-9).all():      # y in the chamber interior
            witnesses.append(int(i))
    assert witnesses == [int(regulars[3])]


@pytest.mark.parametrize("spec", ["A2", "B3"])
def test_waldspurger_trials(spec, built):
    rs, g = built(spec)
    r = verify_waldspurger_partition(rs, g, trials=100)
    assert r.passed
    assert r.lhs == 0.0
    assert (r.rhs_numerator, r.rhs_denominator) == (1, 1)


def test_waldspurger_solve_failure_is_numerical_error(built, monkeypatch):
    rs, g = built("A2")
    # an "inverse" of zeros, shaped like the real one, leaves residual |v|
    monkeypatch.setattr(np.linalg, "inv", lambda a: np.zeros_like(a))
    with pytest.raises(ccl.NumericalError):
        verify_waldspurger_partition(rs, g, trials=5)


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "F4", "A5"])
def test_waldspurger_normals_match_per_point_solve(spec, built, monkeypatch):
    # for every point the check keeps, the facet normals of the pieces
    # (1 - w)C pick the same regular w as a per-point solve, and only one
    rs, g = built(spec)
    recorded = []
    inner = ccl.verify._cone_classifier

    def classifier(normals, margin, roots=None):
        recorded.append((normals, inner(normals, margin, roots)))
        return recorded[-1][1]

    monkeypatch.setattr(ccl.verify, "_cone_classifier", classifier)
    assert verify_waldspurger_partition(rs, g, trials=5).passed
    [(normals, classify)] = recorded
    regular = np.flatnonzero(g.fixed_dims == 0)
    one_minus = np.eye(rs.n) - g.matrix_stack[regular]
    alpha = chamber(rs).dual_basis
    U = np.random.default_rng(0).uniform(size=(200, rs.n))
    V = U @ rs.simple_roots
    kept = (U.min(axis=1) > DEFAULT_TOL.generic_margin) & (classify(V) >= 0)
    assert kept.sum() >= 100
    for v in V[kept]:
        rhs = np.broadcast_to(v[:, None], (len(regular), rs.n, 1))
        x = np.linalg.solve(one_minus, rhs)[..., 0]
        by_solve = np.flatnonzero((x @ alpha.T > 0).all(axis=1))
        by_normals = np.flatnonzero((normals @ v > 0).all(axis=1))
        assert by_solve.tolist() == by_normals.tolist()
        assert len(by_solve) == 1


COUNTING_CHECKS = ["waldspurger", "covering", "oplus", "decomposition",
                   "parabolic"]


def record_classifiers(monkeypatch):
    """Wrap ``_cone_classifier`` so each call appends its (normals, margin,
    roots, classify) to the returned list."""
    recorded = []
    inner = ccl.verify._cone_classifier

    def classifier(normals, margin, roots=None):
        recorded.append((normals, margin, roots,
                         inner(normals, margin, roots)))
        return recorded[-1][-1]

    monkeypatch.setattr(ccl.verify, "_cone_classifier", classifier)
    return recorded


def reference_count(normals, margin, roots, v):
    """The number of cones containing v, one cone at a time, or -1 when v
    lies within the relative margin of a facet or of a reflection
    hyperplane."""
    band = margin * np.linalg.norm(v)
    x = normals @ v                                   # (cones, facets)
    if (np.abs(x) <= band).any():
        return -1
    if roots is not None and (np.abs(roots @ v) <= band).any():
        return -1
    return int((x > band).all(axis=1).sum())


@pytest.mark.parametrize("spec, checks", [
    ("A3", COUNTING_CHECKS), ("B3", COUNTING_CHECKS),
    ("H3", COUNTING_CHECKS), ("F4", COUNTING_CHECKS), ("H4", ["covering"])])
def test_classify_matches_per_cone_reference(spec, checks, built,
                                             monkeypatch):
    # every counting check's classify, facet-major, counts as a plain
    # per-cone loop does: on Gaussian points, on points placed on a facet
    # and on points half the margin from one
    rs, g = built(spec)
    check_classify_against_reference(rs, g, checks, monkeypatch)


@pytest.mark.parametrize("spec", ["A3", "B3", "H3"])
def test_classify_in_small_tiles_matches_per_cone_reference(spec, built,
                                                           monkeypatch):
    # with tiles of 3 cones, most stacks span several tiles and end in a
    # partial one; the counts summed over the tiles are still the per-cone
    # counts
    rs, g = built(spec)
    monkeypatch.setattr(ccl.verify, "TILE_CONES", 3)
    check_classify_against_reference(rs, g, COUNTING_CHECKS, monkeypatch)


def check_classify_against_reference(rs, g, checks, monkeypatch):
    """Run ``checks`` on rs and g, then compare each classify they built
    with ``reference_count`` on Gaussian points and on points on or half
    the margin from a facet."""
    recorded = record_classifiers(monkeypatch)
    run_suite(rs, g, checks, trials=5)
    rng = np.random.default_rng(11)
    for normals, margin, roots, classify in recorded:
        points = [*rng.standard_normal((200, rs.n))]
        for c, f in zip(rng.integers(len(normals), size=5),
                        rng.integers(normals.shape[1], size=5)):
            u = rng.standard_normal(rs.n)
            u -= (normals[c, f] @ u) * normals[c, f]
            points += [u, u + 0.5 * margin * np.linalg.norm(u) * normals[c, f]]
        points = np.array(points)
        expected = [reference_count(normals, margin, roots, v) for v in points]
        assert classify(points).tolist() == expected
        assert all(e == -1 for e in expected[200:])
        assert sum(e >= 0 for e in expected) >= 150


def test_classifier_frame_is_a_view_of_the_translates_stack(built,
                                                            monkeypatch):
    # _translates stores its stack facet-major, so every tile of the
    # classifier's frame is a view of it, not a second copy
    rs, g = built("B3")
    monkeypatch.setattr(ccl.verify, "TILE_CONES", 7)
    recorded = record_classifiers(monkeypatch)
    run_suite(rs, g, ["covering", "oplus", "decomposition", "parabolic"],
              trials=5)
    assert len(recorded) > 4
    assert max(len(normals) for normals, *_ in recorded) > 7
    for normals, _, _, classify in recorded:
        tiles = inspect.getclosurevars(classify).nonlocals["tiles"]
        cones, facets, n = normals.shape
        assert [t.shape for t in tiles] == [
            (facets, n, min(7, cones - a)) for a in range(0, cones, 7)]
        for tile in tiles:
            assert np.shares_memory(tile, normals)


@pytest.mark.parametrize("spec", ["A3", "H4"])
def test_counting_checks_invert_per_group_and_per_face_type(spec, built,
                                                            monkeypatch):
    # waldspurger inverts its stack of 1 - w once; oplus inverts nothing:
    # its facet normals are those of the faces and quotient duals
    rs, g = built(spec)
    geo = Geometry(rs, g)
    pairs = geo.pairs((0,))
    geo.chamber, geo.parabolic((0,))            # built before the count
    inv = np.linalg.inv
    shapes = []
    monkeypatch.setattr(np.linalg, "inv",
                        lambda a: shapes.append(np.shape(a)) or inv(a))
    verify_waldspurger_partition(rs, g, trials=10, geometry=geo)
    assert shapes == [(int(np.count_nonzero(g.fixed_dims == 0)), rs.n, rs.n)]
    shapes.clear()
    r = verify_face_oplus_covering(rs, g, (0,), trials=10, geometry=geo)
    assert r.passed
    assert shapes == []
    assert r.per_term_breakdown[0][1] == sum(map(len, pairs.values())) > len(pairs)


@pytest.mark.parametrize("spec", ["A2", "B2", "I2(6)", "I2(9)", "A3", "B3", "H3"])
def test_waldspurger_pieces_tile_dual_measure(spec, built):
    # the solid pieces (1-w)C for fixed-point-free w partition C*, so their
    # exact measures must sum to sigma(C*)
    rs, g = built(spec)
    ch = chamber(rs)
    total = 0.0
    for i in np.flatnonzero(g.fixed_dims == 0):
        M = np.eye(rs.n) - g.matrix_stack[i]
        piece = SimplicialCone.from_generators(ch.generators @ M.T)
        total += ccl.measure(piece).value
    assert abs(total - ccl.measure(ccl.dual(ch)).value) <= 1e-9


# ---------------------------------------------------------------------------
# covering counts

@pytest.mark.parametrize("spec,expected", [("A2", 2), ("B2", 3), ("H3", 45)])
def test_covering_counts(spec, expected, built):
    rs, g = built(spec)
    r = verify_covering_count(rs, g, trials=100)
    assert r.passed
    assert r.rhs_numerator == expected


def test_oplus_full_set_is_chamber_tiling(built):
    rs, g = built("B3")
    r = verify_face_oplus_covering(rs, g, (0, 1, 2), trials=50)
    assert r.passed and r.rhs_numerator == 1


def test_oplus_empty_set_matches_covering(built):
    rs, g = built("B2")
    r = verify_face_oplus_covering(rs, g, (), trials=50)
    assert r.passed
    assert r.rhs_numerator == g.counts_by_fixed_dim[0]


def test_oplus_a2_single(built):
    rs, g = built("A2")
    r = verify_face_oplus_covering(rs, g, (0,), trials=100)
    assert r.passed and r.rhs_numerator == 1


# ---------------------------------------------------------------------------
# decomposition and parabolic quotient

def test_decomposition_mirror_line_a2(built):
    rs, g = built("A2")
    r = verify_face_decomposition(rs, g, (0,), MC, trials=50)
    assert r.passed
    pieces = [row for row in r.per_term_breakdown if row[0].startswith("piece")]
    assert len(pieces) == 2  # two opposite rays
    assert abs(r.lhs - 1.0) <= 1e-12


def test_decomposition_full_set_tiles_space(built):
    for spec in ("A2", "B3"):
        rs, g = built(spec)
        r = verify_face_decomposition(rs, g, tuple(range(rs.n)), MC,
                                      trials=50)
        assert r.passed
        pieces = [row for row in r.per_term_breakdown if row[0].startswith("piece")]
        assert len(pieces) == g.order


def test_decomposition_b2_axis_line(built):
    rs, g = built("B2")
    r = verify_face_decomposition(rs, g, (1,), MC, trials=50)
    assert r.passed
    pieces = [row for row in r.per_term_breakdown if row[0].startswith("piece")]
    assert len(pieces) == 2


@pytest.mark.parametrize("spec", [str(t) for t in SUPPORTED_TYPES])
def test_span_pairs_and_normalizers_match_projector_oracle(spec, built):
    # oracle: w . span(F_J) = span(F_I) when w P_J w^T = P_I
    rs, g = built(spec)
    geo = Geometry(rs, g)
    n, W, stack = rs.n, rs.fundamental_weights, g.matrix_stack

    def projector(J):
        # onto the row span of V = W[J]: V^T (V V^T)^-1 V
        V = W[list(J)]
        return V.T @ np.linalg.solve(V @ V.T, V)

    for k in range(n + 1):
        types = list(itertools.combinations(range(n), k))
        images = {J: stack @ projector(J) @ np.transpose(stack, (0, 2, 1))
                  for J in types}
        for I in types:
            target = projector(I)
            expected = [(int(w), J) for J in types for w in np.flatnonzero(
                np.abs(images[J] - target).max(axis=(1, 2)) <= 1e-8)]
            assert [(int(w), J) for J, ws in geo.pairs(I).items()
                    for w in ws] == expected
            assert normalizer_of_span(g, I).tolist() == [
                w for w, J in expected if J == I]


@pytest.mark.parametrize("spec", ["F4", "A5", "H4"])
def test_decomposition_pieces_per_type_are_cosets(spec, built):
    # the pieces of type J are the cosets w W_J among the elements w with
    # w . span(F_J) = span(F_I); W_J is the pointwise fixator of F_J
    rs, g = built(spec)
    geo = Geometry(rs, g)
    n, W, stack = rs.n, rs.fundamental_weights, g.matrix_stack

    def projector(J):
        # onto the row span of V = W[J]: V^T (V V^T)^-1 V
        V = W[list(J)]
        return V.T @ np.linalg.solve(V @ V.T, V)

    for k in range(1, n + 1):
        types = list(itertools.combinations(range(n), k))
        images = {J: stack @ projector(J) @ np.transpose(stack, (0, 2, 1))
                  for J in types}
        fixator = {J: int((np.abs(stack @ W[list(J)].T - W[list(J)].T)
                           .max(axis=(1, 2)) <= 1e-8).sum()) for J in types}
        for I in types:
            target = projector(I)
            expected = {}
            for J in types:
                hits = int((np.abs(images[J] - target).max(axis=(1, 2)) <= 1e-8).sum())
                assert hits % fixator[J] == 0
                if hits:
                    expected[J] = hits // fixator[J]
            pieces = geo.pieces(I)
            assert {J: len(ws) for J, ws in pieces.items()} == expected
            if k == n:
                assert sum(expected.values()) == g.order


@pytest.mark.parametrize("spec", ["F4", "A5"])
def test_decomposition_pieces_are_least_in_their_cosets(spec, built):
    # each piece w of type J is the least index in its coset {w u : u in
    # W_J}, the products matched to elements through the matrix stack;
    # enumeration is by word length, so the least index is the shortest
    # element.  The cosets of the pieces partition pairs(I)[J].
    rs, g = built(spec)
    geo = Geometry(rs, g)
    stack = g.matrix_stack
    flat = stack.reshape(g.order, -1)
    for k in range(1, rs.n + 1):
        for I in itertools.combinations(range(rs.n), k):
            for J, ws in geo.pieces(I).items():
                # memoized and shared between checks, so read-only
                assert not ws.flags.writeable
                u = geo.parabolic(J)
                products = (stack[ws, None] @ stack[None, u]).reshape(
                    len(ws) * len(u), -1)
                # orthogonal matrices have squared norm n, so the element a
                # product equals is the one whose inner product with it is n
                inner = products @ flat.T
                assert np.abs(inner.max(axis=1) - rs.n).max() <= 1e-9
                cosets = inner.argmax(axis=1).reshape(len(ws), len(u))
                assert np.array_equal(cosets.min(axis=1), ws)
                assert np.array_equal(np.sort(cosets, axis=None),
                                      geo.pairs(I)[J])


@pytest.mark.parametrize("spec", [str(t) for t in SUPPORTED_TYPES])
def test_oplus_and_parabolic_counts_integrate_to_exact_sums(spec, built,
                                                            monkeypatch):
    # the counts the sampled checks assert, integrated over the sphere
    # with exact measures and judged by the 1e-9 rule:
    # sum_J |pairs(I)[J]| sigma(F_J) sigma((C/F_J)*) = |W^reg_U| over the
    # cones oplus classifies, and |W_F| sigma(C/F_I) = 1 over the cones
    # parabolic classifies, where C/F_I is the cone on the facet normals
    # of (C/F_I)*
    rs, g = built(spec)
    geo = Geometry(rs, g)
    tol, mc = ccl.verify.EXACT_TOL, McConfig()
    recorded = record_classifiers(monkeypatch)
    for k in range(rs.n + 1):
        for I in itertools.combinations(range(rs.n), k):
            pairs, sub = geo.pairs(I), geo.parabolic(I)
            lhs = sum(len(ws) * geo.measure("face", J, mc).value
                      * geo.measure("quotient_dual", J, mc).value
                      for J, ws in pairs.items())
            assert abs(lhs - regular_count(g, sub, rs.n - k)) <= tol
            verify_face_oplus_covering(rs, g, I, trials=1, geometry=geo)
            [(normals, *_)] = recorded
            assert len(normals) == sum(map(len, pairs.values()))
            recorded.clear()
            if k == rs.n:
                continue
            quotient = SimplicialCone.from_generators(
                geo.quotient_dual(I).dual_basis, tol=rs.tol)
            assert abs(len(sub) * measure(quotient).value - 1) <= tol
            verify_parabolic_quotient(rs, g, I, trials=1, geometry=geo)
            [(normals, *_)] = recorded
            assert len(normals) == len(sub)
            recorded.clear()


def test_parabolic_quotient_extremes(built):
    rs, g = built("B3")
    r = verify_parabolic_quotient(rs, g, (0, 1, 2), MC, trials=50)
    assert r.passed
    assert r.lhs == 1.0 and (r.rhs_numerator, r.rhs_denominator) == (1, 1)


def test_parabolic_quotient_a2(built):
    rs, g = built("A2")
    r = verify_parabolic_quotient(rs, g, (0,), MC, trials=50)
    assert r.passed
    assert abs(r.lhs - 0.5) <= 1e-12
    assert (r.rhs_numerator, r.rhs_denominator) == (1, 2)


def test_parabolic_quotient_b3_contains_b2(built):
    # removing the B3 node away from the 4-edge leaves a B2 parabolic
    rs, g = built("B3")
    r = verify_parabolic_quotient(rs, g, (0,), MC, trials=50)
    assert r.passed
    assert abs(r.lhs - 3 / 8) <= 1e-12
    assert (r.rhs_numerator, r.rhs_denominator) == (3, 8)


# ---------------------------------------------------------------------------
# equivalence classes

def test_equiv_measure_a2(built):
    rs, g = built("A2")
    r = verify_equiv_measure(rs, g, [(0,), (1,)])
    assert r.passed
    assert abs(r.lhs - 1.0) <= 1e-12
    assert (r.rhs_numerator, r.rhs_denominator) == (2, 2)


def test_equiv_measure_b2_classes(built):
    rs, g = built("B2")
    for cls in ccl.subspace_orbits(g, 1):
        r = verify_equiv_measure(rs, g, cls)
        assert r.passed
        assert abs(r.lhs - 0.5) <= 1e-12
        assert (r.rhs_numerator, r.rhs_denominator) == (2, 4)


def test_equiv_measure_chamber_class(built):
    rs, g = built("B3")
    r = verify_equiv_measure(rs, g, [(0, 1, 2)])
    assert r.passed
    assert (r.rhs_numerator, r.rhs_denominator) == (1, g.order)


def test_class_sum_examples(built):
    rs, g = built("A2")
    r = verify_class_sum(rs, g, 1)
    assert r.passed
    assert Fraction(r.lhs).limit_denominator() == Fraction(1, 2)
    rs, g = built("B2")
    r = verify_class_sum(rs, g, 1)
    assert r.passed  # 1/4 + 1/4 == 4/8
    terms = [row for row in r.per_term_breakdown if row[0].startswith("class")]
    assert len(terms) == 2
    assert all(abs(t[1] - 0.25) <= 1e-12 for t in terms)


def test_class_sum_k_n(built):
    rs, g = built("B3")
    r = verify_class_sum(rs, g, rs.n)
    assert r.passed
    assert (r.rhs_numerator, r.rhs_denominator) == (1, g.order)


@pytest.mark.parametrize("spec", ["A2", "B3"])
def test_class_sum_default_seed_matches_run_suite(spec, built):
    # at default settings a standalone class-sum report, seed included,
    # equals the one run_suite gives
    rs, g = built(spec)
    for k in range(rs.n + 1):
        (suite,) = run_suite(rs, g, ["class-sum"], k=k)
        assert verify_class_sum(rs, g, k) == suite
        assert suite.seed == 42


# ---------------------------------------------------------------------------
# reports and suite plumbing

def test_report_reproducibility(built):
    rs, g = built("B3")
    a = verify_waldspurger_partition(rs, g, trials=40, seed=7)
    b = verify_waldspurger_partition(rs, g, trials=40, seed=7)
    assert a == b
    c = verify_curious(rs, g, MC)
    d = verify_curious(rs, g, MC)
    assert c == d


def test_report_json_round_trip(built):
    import json
    rs, g = built("A2")
    r = verify_curious(rs, g)
    doc = json.loads(json.dumps(r.to_dict(), sort_keys=True))
    assert doc["identity_name"] == "curious"
    assert doc["group"] == "A2"
    assert doc["passed"] is True


def test_run_suite_covers_everything(built):
    rs, g = built("A2")
    reports = run_suite(rs, g, mc=MC, trials=30)
    names = {r.identity_name for r in reports}
    assert names == {"curious", "main", "waldspurger", "covering", "oplus",
                     "decomposition", "parabolic", "equiv-measure", "class-sum"}
    assert all(r.passed for r in reports)
    mains = [r for r in reports if r.identity_name == "main"]
    assert sorted(r.k for r in mains) == [0, 1, 2]


@pytest.mark.parametrize("spec,runs", [("F4", 2), ("A5", 8)])
def test_run_suite_distinct_mc_runs(spec, runs, built):
    # one Monte Carlo run per congruence class of measured cones: F4 measures
    # only its chamber and dual chamber classes, however many copies
    rs, g = built(spec)
    _measure_class.cache_clear()
    reports = run_suite(rs, g, mc=McConfig(samples=20_000), trials=20)
    assert _measure_class.cache_info().misses == runs
    assert all(r.passed for r in reports)


def test_calibration_seed_sweep(built):
    # err/stderr over seeds must look like a unit normal: estimates of one
    # congruence class share an error, so a stderr that added their
    # variances as if independent would be too small and this would fail
    rs, g = built("A5")
    ratios = []
    for seed in range(20):
        mc = McConfig(samples=20_000, seed=seed)
        reports = [verify_face_decomposition(rs, g, (0, 1, 2, 3), mc),
                   verify_main(rs, g, 1, mc), verify_main(rs, g, 4, mc)]
        reports += [verify_equiv_measure(rs, g, cls, mc)
                    for cls in ccl.subspace_orbits(g, 4)]
        for r in reports:
            assert r.passed, (seed, r.identity_name, r.k)
            err = r.lhs - r.rhs_numerator / r.rhs_denominator
            ratios.append(err / r.combined_stderr)
    assert 0.5 <= statistics.pstdev(ratios) <= 1.6


def subsets(rs):
    return [I for k in range(rs.n + 1)
            for I in itertools.combinations(range(rs.n), k)]


def standalone_suite(rs, g, mc, trials=100):
    """The reports of run_suite(rs, g, mc=mc), from one standalone verify_*
    call per verdict, in report order."""
    seed = mc.seed
    reports = [verify_curious(rs, g, mc)]
    reports += [verify_main(rs, g, k, mc) for k in range(rs.n + 1)]
    reports.append(verify_waldspurger_partition(rs, g, trials, seed))
    reports.append(verify_covering_count(rs, g, trials, seed))
    reports += [verify_face_oplus_covering(rs, g, I, trials, seed)
                for I in subsets(rs)]
    reports += [verify_face_decomposition(rs, g, I, mc, trials)
                for I in subsets(rs)]
    reports += [verify_parabolic_quotient(rs, g, I, mc, trials)
                for I in subsets(rs)]
    reports += [verify_equiv_measure(rs, g, cls, mc)
                for k in range(rs.n + 1) for cls in ccl.subspace_orbits(g, k)]
    reports += [verify_class_sum(rs, g, k, seed=seed) for k in range(rs.n + 1)]
    return reports


def resamples(report):
    return sum(v for name, v, _ in report.per_term_breakdown
               if name == "resamples")


@pytest.mark.parametrize("spec,samples,margin", [
    pytest.param(spec, samples, None, id=f"{spec}-{samples}")
    for spec in ("A3", "B4", "H3", "F4") for samples in (None, 20_000)
] + [pytest.param("B3", None, 0.01, id="B3-None-margin0.01")])
def test_run_suite_equals_standalone_verifiers(spec, samples, margin, built):
    # the shared geometry changes what is built, never what is reported;
    # the margin case reads its margin from the root system and resamples
    rs, g = built(spec) if margin is None else built_with_margin(spec, margin)
    mc = McConfig(samples=samples)
    reports = run_suite(rs, g, mc=mc)
    assert ([r.to_dict() for r in reports]
            == [r.to_dict() for r in standalone_suite(rs, g, mc)])
    if margin is not None:
        assert sum(map(resamples, reports)) > 0


def test_verdicts_do_not_depend_on_the_frame(built):
    # every identity is a statement about the geometry up to congruence: a
    # root system turned by a random orthogonal Q, then enumerated again,
    # gives the same verdicts, and every exact lhs within 1e-12 relative
    rng = np.random.default_rng(16)
    for t in SUPPORTED_TYPES:
        rs, g = built(str(t))
        Q = np.linalg.qr(rng.standard_normal((rs.n, rs.n)))[0]
        turned = dataclasses.replace(
            rs, simple_roots=rs.simple_roots @ Q, all_roots=rs.all_roots @ Q,
            fundamental_weights=rs.fundamental_weights @ Q)
        before = run_suite(rs, g)
        after = run_suite(turned, ccl.enumerate_group(turned))
        assert len(after) == len(before)
        for a, b in zip(before, after):
            assert ((b.identity_name, b.k, b.passed, b.rhs_numerator,
                     b.rhs_denominator) == (a.identity_name, a.k, a.passed,
                                            a.rhs_numerator, a.rhs_denominator))
            assert math.isclose(b.lhs, a.lhs, rel_tol=1e-12, abs_tol=0.0), (
                f"{t} {a.identity_name} k={a.k}: {b.lhs!r} against {a.lhs!r}")


def test_verdicts_do_not_depend_on_the_diagram_labelling(built):
    # an automorphism s of the Coxeter diagram comes from an isometry that
    # maps the chamber to itself and each face F_I to F_s(I), so the simple
    # roots relabelled by s, enumerated again, give every verdict in its
    # place: the same identity, k, pass flag and rhs, and lhs within 1e-12
    # relative.  The automorphisms are the permutations that keep the
    # cosines -cos(pi / m_ij) between the unit simple roots
    checked = 0
    for t in SUPPORTED_TYPES:
        rs, g = built(str(t))
        unit = rs.simple_roots / np.linalg.norm(rs.simple_roots, axis=1,
                                                keepdims=True)
        cos = unit @ unit.T
        before = None
        for s in map(list, itertools.permutations(range(rs.n))):
            if s == sorted(s) or np.abs(cos[np.ix_(s, s)] - cos).max() > 1e-12:
                continue
            if before is None:
                before = run_suite(rs, g)
            relabelled = dataclasses.replace(
                rs, simple_roots=rs.simple_roots[s],
                fundamental_weights=rs.fundamental_weights[s])
            after = run_suite(relabelled, ccl.enumerate_group(relabelled))
            assert len(after) == len(before)
            for a, b in zip(before, after):
                assert ((b.identity_name, b.k, b.passed, b.rhs_numerator,
                         b.rhs_denominator) == (a.identity_name, a.k, a.passed,
                                                a.rhs_numerator, a.rhs_denominator))
                assert math.isclose(b.lhs, a.lhs, rel_tol=1e-12, abs_tol=0.0), (
                    f"{t} {s} {a.identity_name} k={a.k}: {b.lhs!r} against {a.lhs!r}")
            checked += 1
    # A2-A5, B2, F4 and the ten I2(m) have one each, D4 five
    assert checked == 21


def test_standalone_counting_checks_repeat_on_one_seed():
    # each call draws from a fresh stream on its seed: a second call with
    # the same seed reports the same counts and resamples (at margin 0.01
    # there are some to report)
    rs, g = built_with_margin("B3", 0.01)
    mc = McConfig(seed=7)
    checks = [
        lambda: verify_waldspurger_partition(rs, g, 40, 7),
        lambda: verify_covering_count(rs, g, 40, 7),
        lambda: verify_face_oplus_covering(rs, g, (0,), 40, 7),
        lambda: verify_face_decomposition(rs, g, (0, 1), mc, 40),
        lambda: verify_parabolic_quotient(rs, g, (0,), mc, 40),
    ]
    reports = []
    for check in checks:
        first, second = check(), check()
        assert first == second and first.seed == 7
        reports.append(first)
    assert sum(map(resamples, reports)) > 0


def test_standalone_measure_checks_draw_from_the_mc_seed(built):
    # decomposition and parabolic draw their points from mc.seed, so a
    # standalone call equals the run_suite report of the same McConfig
    rs, g = built("B3")
    mc = McConfig(seed=7)
    names = ("decomposition", "parabolic")
    standalone = [verify_face_decomposition(rs, g, I, mc) for I in subsets(rs)]
    standalone += [verify_parabolic_quotient(rs, g, I, mc) for I in subsets(rs)]
    assert run_suite(rs, g, names, mc=mc) == standalone
    assert all(r.seed == 7 for r in standalone)


def test_run_suite_builds_each_piece_of_geometry_once(built, monkeypatch):
    # default run_suite over the catalog: one chamber and one dual chamber
    # per group, and one face, quotient dual, parabolic subgroup,
    # normalizer, orbit set, carrier table and exact quadrature per
    # distinct input
    # (without the shared geometry: 786 chambers, 752 faces, 622 parabolic
    # subgroups, 81 quadratures)
    import ccl.angles
    import ccl.groups
    calls = {}

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args):
            calls.setdefault(name, []).append(args)
            return inner(*args)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("chamber", "dual", "face", "parabolic_subgroup",
                 "normalizer_of_span", "subspace_orbits"):
        counted(ccl.verify, name)
    counted(ccl.angles, "_measure_plackett")
    # Geometry.pairs calls face_carriers from ccl.verify,
    # normalizer_of_span and subspace_orbits from ccl.groups
    counted(ccl.verify, "face_carriers")
    counted(ccl.groups, "face_carriers")
    # (face_carriers calls, classes) of each subspace_orbits call
    per_orbits = []
    orbits = ccl.verify.subspace_orbits

    def counted_orbits(g, k):
        before = len(calls.get("face_carriers", ()))
        classes = orbits(g, k)
        per_orbits.append((len(calls["face_carriers"]) - before, len(classes)))
        return classes

    monkeypatch.setattr(ccl.verify, "subspace_orbits", counted_orbits)
    groups = [built(str(t)) for t in SUPPORTED_TYPES]
    for rs, g in groups:
        assert all(r.passed for r in run_suite(rs, g))
    counts = {name: len(args) for name, args in calls.items()}
    assert counts == {"chamber": 22, "dual": 22, "face": 2 * 186,
                      "parabolic_subgroup": 186,
                      "normalizer_of_span": 125, "subspace_orbits": 81,
                      "face_carriers": 436, "_measure_plackett": 22}
    # subspace_orbits makes one carrier table per class it returns: 125
    # classes over the 81 values of k
    assert all(made == classes for made, classes in per_orbits)
    classes = sum(c for _, c in per_orbits)
    assert len(per_orbits) == 81 and classes == 125
    # the 436 tables: pairs(I) for the 186 subsets, which pieces(I)
    # filters, one per normalizer and one per class
    assert counts["face_carriers"] == 186 + 125 + classes
    # 186 = the 2^n face subsets of the 22 groups; face() builds F_I, a
    # face of the chamber, and (C/F_I)*, a face of the dual chamber, for
    # each of them: parabolic measures every (C/F_I)* and samples in its
    # span; 81 = the values 0..n of k
    assert sum(2 ** rs.n for rs, _ in groups) == 186
    assert sum(rs.n + 1 for rs, _ in groups) == 81
    faces = {(id(c), tuple(I)) for c, I in calls["face"]}
    assert len(faces) == counts["face"]
    assert len({id(c) for c, _ in calls["face"]}) == 2 * 22
    for name in ("parabolic_subgroup", "normalizer_of_span", "subspace_orbits"):
        assert len({(id(g), key) for g, key in calls[name]}) == counts[name]
    # the 22 cones of dimension 4 and 5: per rank-4 group the chamber and
    # the dual chamber, which is also (C/F_{})*; for A5 the chamber, the
    # dual chamber, the five faces of dimension 4 and the five (C/F_{i})*
    assert counts["_measure_plackett"] == 5 * 2 + 12


def test_default_run_suite_factors_each_cone_once(built, monkeypatch):
    # F4's default run_suite builds 34 cones and makes no SVD (46 when
    # each cone took its span basis from an SVD and a quotient cone was
    # built for each face): the chamber, its dual, and per subset I the
    # face F_I and the quotient dual (C/F_I)*, zero cones included; each
    # reads its Gram matrix, and the counting checks sample in the span
    # from its Cholesky factor
    rs, g = built("F4")
    calls = {"svd": 0, "from_generators": 0}

    def counted(owner, name, wrap=lambda f: f):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrap(wrapper))

    counted(np.linalg, "svd")
    counted(SimplicialCone, "from_generators", staticmethod)
    assert all(r.passed for r in run_suite(rs, g))
    assert calls == {"svd": 0, "from_generators": 1 + 1 + 16 + 16}


def test_geometry_must_describe_the_verified_group(built):
    rs, g = built("A2")
    rs3, g3 = built("B3")
    geometry = Geometry(rs, g)
    assert (verify_curious(rs, g, geometry=geometry)
            == verify_curious(rs, g))
    other = Geometry(rs3, g3)
    with pytest.raises(ccl.InvalidArgumentError, match="geometry"):
        verify_curious(rs, g, geometry=other)
    with pytest.raises(ccl.InvalidArgumentError, match="geometry"):
        verify_face_oplus_covering(rs, g, (0,), 10, geometry=other)
    with pytest.raises(ccl.InvalidArgumentError, match="geometry"):
        verify_class_sum(rs, g, 1, geometry=Geometry(rs3, g3))


def test_run_suite_rejects_unknown_identity_before_running(built, monkeypatch):
    rs, g = built("A2")
    ran = []
    inner = ccl.verify.verify_curious
    monkeypatch.setattr(ccl.verify, "verify_curious",
                        lambda *a, **kw: ran.append(1) or inner(*a, **kw))
    with pytest.raises(ccl.InvalidArgumentError, match="unknown identity"):
        run_suite(rs, g, identities=("curious", "bogus"))
    assert ran == []
    # the runners look the verifiers up when they run
    assert len(run_suite(rs, g, identities=("curious",))) == 1 and ran == [1]


def test_run_suite_restricted_k(built):
    rs, g = built("B2")
    reports = run_suite(rs, g, identities=("main", "class-sum"), k=1, mc=MC)
    assert all(r.k == 1 for r in reports)


@pytest.mark.parametrize("trials", [0, -3])
def test_counting_checks_reject_trials_below_one(trials, built):
    # no trial would make every counting check pass vacuously
    rs, g = built("A2")
    checks = [
        lambda: verify_waldspurger_partition(rs, g, trials),
        lambda: verify_covering_count(rs, g, trials),
        lambda: verify_face_oplus_covering(rs, g, (0,), trials),
        lambda: verify_face_decomposition(rs, g, (0,), MC, trials),
        lambda: verify_parabolic_quotient(rs, g, (0,), MC, trials),
        lambda: run_suite(rs, g, identities=("curious",), trials=trials),
    ]
    for check in checks:
        with pytest.raises(ccl.InvalidArgumentError, match="trials"):
            check()


@pytest.mark.parametrize("k", [3, -1])
def test_run_suite_rejects_k_out_of_range(k, built):
    rs, g = built("A2")
    with pytest.raises(ccl.InvalidArgumentError, match="k must be in 0..2"):
        run_suite(rs, g, identities=("oplus",), k=k)


def test_sampler_exhaustion(monkeypatch):
    monkeypatch.setattr(ccl.verify, "RESAMPLE_LIMIT", 3)
    s = GenericPointSampler(seed=1)
    blocks = itertools.count()

    def reject(V):
        assert next(blocks) < 10, "the sampler did not give up"
        return np.full(len(V), -1)

    with pytest.raises(ccl.GenericityError):
        s.sample(lambda rng, m: rng.standard_normal((m, 2)), reject, trials=1)
    assert s.resamples == 4


def test_genericity_margin_is_respected(built):
    rs, g = built("A2")
    s = GenericPointSampler(seed=3, generic_margin=0.2)
    draws = []

    def classify(V):
        # the index of each generic point among all points drawn
        first = sum(map(len, draws))
        draws.append(V)
        generic = np.abs(V @ rs.all_roots.T).min(axis=1) > 0.2 * np.linalg.norm(V, axis=1)
        return np.where(generic, first + np.arange(len(V)), -1)

    kept = s.sample(lambda rng, m: rng.standard_normal((m, 2)), classify, trials=20)
    V = np.concatenate(draws)[kept]
    assert len(V) == 20 and s.resamples > 0
    assert (np.diff(kept) > 0).all()            # in draw order
    assert len(np.concatenate(draws)) == 20 + s.resamples
    assert (np.abs(V @ rs.all_roots.T).min(axis=1) > 0.2 * np.linalg.norm(V, axis=1)).all()


# ---------------------------------------------------------------------------
# block sampling against one point at a time

def per_point_sample(self, draw, classify, trials, entries_per_point=1):
    """Reference for GenericPointSampler.sample: one draw and one classify
    per point, redrawing a non-generic point up to RESAMPLE_LIMIT times."""
    counts = []
    for _ in range(trials):
        for _ in range(ccl.verify.RESAMPLE_LIMIT + 1):
            c = int(classify(draw(self._rng, 1))[0])
            if c >= 0:
                break
            self.resamples += 1
        else:
            raise ccl.GenericityError("no generic point found")
        counts.append(c)
    return np.array(counts)


def counting_checks(rs, g, trials=40):
    """Run every counting check on every subset, each on seed 5 and the
    genericity margin of ``rs``."""
    mc = McConfig(samples=200_000, seed=5)
    verify_waldspurger_partition(rs, g, trials, 5)
    verify_covering_count(rs, g, trials, 5)
    for I in subsets(rs):
        verify_face_oplus_covering(rs, g, I, trials, 5)
        verify_face_decomposition(rs, g, I, mc, trials)
        verify_parabolic_quotient(rs, g, I, mc, trials)


@pytest.mark.parametrize("margin", [DEFAULT_TOL.generic_margin, 0.01])
@pytest.mark.parametrize("spec", ["A3", "B3", "H3"])
def test_block_sampling_matches_per_point_reference(spec, margin, monkeypatch):
    check_block_sampling(spec, margin, monkeypatch)


# with tiles of 1 cone every stack spans several tiles; with tiles of 3,
# every stack of 4, 8, 10, ... cones ends in a partial one
@pytest.mark.parametrize("tile", [1, 3])
@pytest.mark.parametrize("margin", [DEFAULT_TOL.generic_margin, 0.01])
@pytest.mark.parametrize("spec", ["A3", "B3", "H3"])
def test_block_sampling_in_small_tiles_matches_per_point_reference(
        spec, margin, tile, monkeypatch):
    monkeypatch.setattr(ccl.verify, "TILE_CONES", tile)
    classifiers = record_classifiers(monkeypatch)
    check_block_sampling(spec, margin, monkeypatch)
    cones = [len(normals) for normals, *_ in classifiers]
    assert min(cones) >= 2 if tile == 1 else any(c > 3 and c % 3 for c in cones)


def check_block_sampling(spec, margin, monkeypatch):
    """Run every counting check of ``spec`` on ``margin`` with block
    sampling and with ``per_point_sample``, and compare their counts and
    resamples."""
    rs, g = built_with_margin(spec, margin)
    runs = []
    for sample in (GenericPointSampler.sample, per_point_sample):
        calls = []

        def recorded(self, *args, sample=sample, calls=calls, **kwargs):
            counts = sample(self, *args, **kwargs)
            calls.append((counts.tolist(), self.resamples))
            return counts

        monkeypatch.setattr(GenericPointSampler, "sample", recorded)
        counting_checks(rs, g)
        runs.append(calls)
    blocked, reference = runs
    # waldspurger and covering, oplus on all 2^n subsets, decomposition
    # and parabolic on the 2^n - 1 subsets that leave a space to sample
    assert len(blocked) == 3 * 2 ** rs.n
    assert blocked == reference
    resamples = sum(r for _, r in blocked)
    assert resamples > 0 if margin == 0.01 else resamples == 0


def test_h4_covering_classifies_in_tiles_within_block_entries(built,
                                                              monkeypatch):
    # H4 covering's 14 400 cones are classified one tile at a time, so its
    # 100 trials fit in at most 2 blocks, and no coordinate array that
    # _count_inside reduces holds more than BLOCK_ENTRIES entries
    rs, g = built("H4")
    blocks, inputs = [], []
    inner_classifier, inner_count = ccl.verify._cone_classifier, ccl.verify._count_inside

    def classifier(normals, margin, roots=None):
        classify = inner_classifier(normals, margin, roots)
        return lambda points: blocks.append(len(points)) or classify(points)

    def count_inside(coords, band):
        inputs.append(coords.shape)
        return inner_count(coords, band)

    monkeypatch.setattr(ccl.verify, "_cone_classifier", classifier)
    monkeypatch.setattr(ccl.verify, "_count_inside", count_inside)
    report = verify_covering_count(rs, g, trials=100)
    assert report.passed
    assert 1 <= len(blocks) <= 2 and sum(blocks) >= 100
    assert all(np.prod(shape) <= ccl.verify.BLOCK_ENTRIES for shape in inputs)
    # every block's tiles cover the whole stack once
    assert sum(shape[2] for shape in inputs) == len(blocks) * g.order


@pytest.mark.parametrize("cap", [1, 2, 5, None])
def test_reject_runs_across_blocks(cap, monkeypatch):
    # kept, kept, then a run of RESAMPLE_LIMIT + 1 = 4 rejects: the runs of
    # 3 are allowed and the run of 4 raises, whatever blocks they fall in
    monkeypatch.setattr(ccl.verify, "RESAMPLE_LIMIT", 3)
    if cap is not None:
        monkeypatch.setattr(ccl.verify, "BLOCK_ENTRIES", cap)
    pattern = iter([-1, -1, -1, 7, -1, -1, -1, 8, -1, -1, -1, -1, 9])
    drawn = []

    def draw(rng, m):
        drawn.append(m)
        return rng.standard_normal((m, 2))

    def classify(V):
        return np.array([next(pattern) for _ in V])

    s = GenericPointSampler(seed=1)
    assert s.sample(draw, classify, trials=2).tolist() == [7, 8]
    assert s.resamples == 6 and sum(drawn) == 8
    with pytest.raises(ccl.GenericityError):
        s.sample(draw, classify, trials=1)
    assert s.resamples == 10 and sum(drawn) == 12
    if cap == 1:
        assert drawn == [1] * 12

