import dataclasses
import itertools
import math

import numpy as np
import pytest

import ccl
from ccl.cones import (SimplicialCone, _checked_quotient_dual,
                       _quotient_from_face, chamber, dual, face)
from ccl.verify import _count_inside


def quotient(c, I):
    """The quotient cone C/F_I, built as ``Geometry.quotient`` builds it."""
    return _quotient_from_face(c, I, face(c, I))


def quotient_dual(c, I):
    """(C/F_I)*, checked against C/F_I as ``Geometry.quotient_dual`` is."""
    return _checked_quotient_dual(c, I, quotient(c, I))


def rotation2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def cone_angle_2d(c):
    g0, g1 = c.generators
    return math.acos(g0 @ g1 / (np.linalg.norm(g0) * np.linalg.norm(g1)))


# ---------------------------------------------------------------------------
# construction, chamber, dual

def test_chamber_a1(built):
    rs, _ = built("A1")
    ch = chamber(rs)
    assert ch.dim == 1
    assert np.allclose(ch.generators, rs.fundamental_weights, atol=1e-12)


def test_chamber_a2_opens_60_degrees(built):
    rs, _ = built("A2")
    assert abs(math.degrees(cone_angle_2d(chamber(rs))) - 60.0) <= 1e-9


@pytest.mark.parametrize("spec", ["A2", "B3", "I2(9)", "F4", "H3"])
def test_chamber_interior_point(spec, built):
    rs, _ = built(spec)
    ch = chamber(rs)
    v = ch.generators.sum(axis=0)
    assert np.all(rs.simple_roots @ v > 0)
    assert np.all(ch.dual_basis @ v > 1e-9)
    # chamber facet normals are the simple roots
    assert np.abs(ch.dual_basis - rs.simple_roots).max() <= 1e-9


def same_ray_sets(A, B, tol=1e-9):
    """Generator sets equal as sets of rays (unit directions, any order)."""
    An = A / np.linalg.norm(A, axis=1, keepdims=True)
    Bn = B / np.linalg.norm(B, axis=1, keepdims=True)
    if An.shape != Bn.shape:
        return False
    return all(np.linalg.norm(Bn - a, axis=1).min() <= tol for a in An)


def test_orthant_self_dual():
    c = SimplicialCone.from_generators(np.eye(3))
    d = dual(c)
    assert same_ray_sets(d.generators, np.eye(3))


def test_dual_a2_chamber_is_root_cone(built):
    rs, _ = built("A2")
    d = dual(chamber(rs))
    assert abs(math.degrees(cone_angle_2d(d)) - 120.0) <= 1e-9


def test_dual_is_involution(built):
    for spec in ("A2", "B3", "F4"):
        rs, _ = built(spec)
        ch = chamber(rs)
        dd = dual(dual(ch))
        assert np.abs(dd.generators - ch.generators).max() <= 1e-9


def test_dual_requires_full_dimension(built):
    rs, _ = built("A2")
    ray = face(chamber(rs), (0,))
    with pytest.raises(ccl.InvalidArgumentError):
        dual(ray)


def test_degenerate_generators_rejected():
    with pytest.raises(ccl.DegenerateConeError):
        SimplicialCone.from_generators([[1.0, 0.0], [2.0, 0.0]])


# ---------------------------------------------------------------------------
# faces, quotients

def test_face_empty_is_zero_cone(built):
    rs, _ = built("A2")
    f = face(chamber(rs), ())
    assert f.dim == 0 and f.span.dim == 0
    assert f.ambient_dim == 2
    assert np.abs(f.span.projector()).max() == 0.0


def test_face_full_is_chamber(built):
    rs, _ = built("B3")
    ch = chamber(rs)
    f = face(ch, (0, 1, 2))
    assert np.abs(f.generators - ch.generators).max() <= 1e-12


def test_face_a2_span_is_second_mirror(built):
    rs, _ = built("A2")
    f = face(chamber(rs), (0,))
    # (alpha_1, omega_0) = 0: the ray's span is the mirror of s_1
    P = f.span.projector()
    w = rs.fundamental_weights[0]
    mirror = np.outer(w, w) / (w @ w)
    assert np.abs(P - mirror).max() <= 1e-12
    assert abs(rs.simple_roots[1] @ rs.fundamental_weights[0]) <= 1e-12


@pytest.mark.parametrize("spec", ["A2", "B2", "A3", "B3", "H3", "F4"])
def test_face_span_equals_facet_intersection(spec, built):
    # face() asserts this internally; exercise every subset
    rs, _ = built(spec)
    ch = chamber(rs)
    for k in range(rs.n + 1):
        for I in itertools.combinations(range(rs.n), k):
            face(ch, I)


def test_quotient_extremes(built):
    rs, _ = built("B3")
    ch = chamber(rs)
    q = quotient(ch, ())
    assert np.abs(q.generators - ch.generators).max() <= 1e-12
    assert quotient(ch, (0, 1, 2)).dim == 0


def test_quotient_a2_is_ray_in_orthogonal_line(built):
    rs, _ = built("A2")
    q = quotient(chamber(rs), (0,))
    assert q.dim == 1
    assert abs(q.generators[0] @ rs.fundamental_weights[0]) <= 1e-12


def test_quotient_dual_extremes(built):
    rs, _ = built("B3")
    ch = chamber(rs)
    qd = quotient_dual(ch, ())
    d = dual(ch)
    assert np.abs(np.sort(qd.generators, axis=0)
                  - np.sort(d.generators, axis=0)).max() <= 1e-9
    assert quotient_dual(ch, (0, 1, 2)).dim == 0


def test_quotient_dual_a2_is_ray_along_alpha2(built):
    rs, _ = built("A2")
    qd = quotient_dual(chamber(rs), (0,))
    assert qd.dim == 1
    assert np.linalg.norm(qd.generators[0] - rs.simple_roots[1]) <= 1e-9


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "A5", "B2", "B3",
                                  "B4", "D4", "I2(3)", "I2(6)", "I2(11)",
                                  "H3", "F4"])
def test_quotient_dual_consistency_all_subsets(spec, built):
    # quotient_dual internally asserts agreement with the dual of the
    # quotient computed inside the complement span
    rs, _ = built(spec)
    ch = chamber(rs)
    for k in range(rs.n + 1):
        for I in itertools.combinations(range(rs.n), k):
            qd = quotient_dual(ch, I)
            assert qd.dim == rs.n - k


def test_face_rejects_a_tilted_facet_normal(built):
    # tilting the normal of facet 1 towards omega_0 leaves it no longer
    # orthogonal to F_{0}, so the face-span identity fails
    rs, _ = built("B3")
    ch = chamber(rs)
    face(ch, (0,))
    D = ch.dual_basis.copy()
    D[1] += 0.1 * ch.generators[0]
    tilted = dataclasses.replace(ch, dual_basis=D)
    with pytest.raises(ccl.NumericalError, match="face span"):
        face(tilted, (0,))
    face(tilted, (1,))          # facet 1 is inside I = {1}: nothing to check


def test_quotient_dual_rejects_swapped_rows(built):
    # q's dual rows must equal the facet normals outside I in order; a
    # greedy match of unit directions accepted the same rows swapped
    rs, _ = built("B3")
    ch = chamber(rs)
    q = quotient(ch, (0,))
    assert q.dim == 2
    _checked_quotient_dual(ch, (0,), q)
    swapped = dataclasses.replace(q, dual_basis=q.dual_basis[::-1])
    with pytest.raises(ccl.NumericalError, match="quotient dual"):
        _checked_quotient_dual(ch, (0,), swapped)


def test_derived_cones_carry_the_root_system_tolerances():
    tol = ccl.ToleranceConfig(eps_rank=1e-5, eps_root_match=1e-4)
    rs = ccl.build(ccl.GroupType.parse("B3"), tol)
    ch = chamber(rs)
    derived = [ch, dual(ch)]
    for k in range(rs.n + 1):
        for I in itertools.combinations(range(rs.n), k):
            derived += [face(ch, I), quotient(ch, I), quotient_dual(ch, I)]
    assert all(c.tol is rs.tol for c in derived)
    assert SimplicialCone.from_generators(np.eye(2)).tol is ccl.DEFAULT_TOL


def test_cone_rank_check_reads_the_cone_tolerance():
    # a face inherits eps_rank: generators with singular value 1e-6 form a
    # cone under the default 1e-7 and are dependent under 1e-5
    gens = np.array([[1.0, 0.0, 0.0], [1.0, 1e-6, 0.0], [0.0, 0.0, 1.0]])
    fine = SimplicialCone.from_generators(gens)
    assert face(fine, (0, 1)).dim == 2
    coarse = dataclasses.replace(fine, tol=ccl.ToleranceConfig(eps_rank=1e-5))
    with pytest.raises(ccl.DegenerateConeError):
        face(coarse, (0, 1))


# ---------------------------------------------------------------------------
# membership: the verifiers classify a point by its facet coordinates

def chambers_containing(ch, v, band):
    """1 inside, 0 outside, -1 within band of a facet (a resample)."""
    return int(_count_inside((ch.dual_basis @ v)[None, :, None], band)[0])


def test_membership_classifications(built):
    rs, _ = built("B3")
    ch = chamber(rs)
    gens = ch.generators
    assert chambers_containing(ch, gens.sum(axis=0), 1e-9) == 1
    assert chambers_containing(ch, gens[0], 1e-9) == -1        # boundary
    assert chambers_containing(ch, -gens.sum(axis=0), 1e-9) == 0


def test_membership_scale_invariance(built):
    # the verifiers scale the band with the point, so a verdict does not
    # depend on the point's length
    rs, _ = built("B3")
    ch = chamber(rs)
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.standard_normal(3)
        m = chambers_containing(ch, v, 1e-6 * np.linalg.norm(v))
        for lam in (0.5, 2.0, 10.0):
            w = lam * v
            assert chambers_containing(ch, w, 1e-6 * np.linalg.norm(w)) == m


# ---------------------------------------------------------------------------
# tiling invariant

@pytest.mark.parametrize("spec", ["A2", "B2", "A3", "B3"])
def test_chamber_tiling(spec, built):
    rs, g = built(spec)
    ch = chamber(rs)
    rng = np.random.default_rng(21)
    pts = rng.standard_normal((1000, rs.n))
    # drop points too close to a mirror
    keep = np.abs(pts @ rs.all_roots.T).min(axis=1) > 1e-6 * np.linalg.norm(pts, axis=1)
    pts = pts[keep]
    stack = g.matrix_stack
    coords = np.einsum("pi,mij->pmj", pts, stack) @ rs.simple_roots.T
    inside = (coords > 1e-9).all(axis=2)
    assert (inside.sum(axis=1) == 1).all()
