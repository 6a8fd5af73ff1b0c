import dataclasses
import itertools
import math

import numpy as np
import pytest

import ccl
from ccl.cones import SimplicialCone, chamber, dual, face
from ccl.roots import SUPPORTED_TYPES
from ccl.verify import Geometry, _count_inside, _span_basis

ALL_GROUPS = [str(t) for t in SUPPORTED_TYPES]


def svd_basis(A):
    """Oracle: orthonormal rows spanning the rows of A (independent), from
    an SVD."""
    A = np.atleast_2d(A)
    if A.size == 0:
        return np.zeros((0, A.shape[1]))
    return np.linalg.svd(A, full_matrices=False)[2]


def projector(B):
    """Orthogonal projector onto the span of the orthonormal rows B."""
    return B.T @ B


def quotient(c, I):
    """Oracle: the quotient cone C/F_I, the generators outside I projected
    onto span(F_I)-perp by the projector of an SVD basis of span(F_I)."""
    n = c.ambient_dim
    rest = [j for j in range(n) if j not in I]
    if not rest:
        return SimplicialCone.from_generators([], ambient_dim=n, tol=c.tol)
    P = np.eye(n) - projector(svd_basis(c.generators[list(I)]))
    return SimplicialCone.from_generators(c.generators[rest] @ P.T, tol=c.tol)


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


# ---------------------------------------------------------------------------
# the stored Gram matrix and dual basis, and the rank rule

def test_cone_stores_its_gram_matrix_and_dual_basis():
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        for k in range(1, n + 1):
            gens = rng.standard_normal((k, n))
            c = SimplicialCone.from_generators(gens)
            assert np.abs(c.gram - gens @ gens.T).max() <= 1e-12
            assert np.abs(c.generators @ c.dual_basis.T - np.eye(k)).max() <= 1e-9
            # the dual rows lie in the span: the SVD projector fixes them
            P = projector(svd_basis(gens))
            assert np.abs(c.dual_basis @ P - c.dual_basis).max() <= 1e-9
            assert not any(a.flags.writeable
                           for a in (c.generators, c.gram, c.dual_basis))


def test_gram_rank_rule_is_the_singular_value_rule():
    # lambda_min(Gram) <= eps_rank^2 exactly when sigma_min <= eps_rank: the
    # rows (1, 0) and (1, t) have sigma_min about t / sqrt(2)
    tol = ccl.DEFAULT_TOL
    for scale in (0.5, 0.8, 1.25, 2.0):
        t = scale * tol.eps_rank * math.sqrt(2.0)
        gens = np.array([[1.0, 0.0], [1.0, t]])
        sigma = np.linalg.svd(gens, compute_uv=False)[-1]
        if sigma <= tol.eps_rank:
            with pytest.raises(ccl.DegenerateConeError):
                SimplicialCone.from_generators(gens, tol=tol)
        else:
            assert SimplicialCone.from_generators(gens, tol=tol).dim == 2


def test_more_generators_than_dimensions_rejected():
    with pytest.raises(ccl.DegenerateConeError):
        SimplicialCone.from_generators(np.eye(3)[:, :2])


def test_degenerate_generators_rejected():
    with pytest.raises(ccl.DegenerateConeError):
        SimplicialCone.from_generators([[1.0, 0.0], [2.0, 0.0]])


# ---------------------------------------------------------------------------
# faces, quotients

def test_face_empty_is_zero_cone(built):
    rs, _ = built("A2")
    f = face(chamber(rs), ())
    assert f.dim == 0 and f.gram.shape == (0, 0)
    assert f.ambient_dim == 2 and f.generators.shape == (0, 2)


def test_face_full_is_chamber(built):
    rs, _ = built("B3")
    ch = chamber(rs)
    f = face(ch, (0, 1, 2))
    assert np.abs(f.generators - ch.generators).max() <= 1e-12


def test_face_a2_span_is_second_mirror(built):
    rs, _ = built("A2")
    f = face(chamber(rs), (0,))
    # (alpha_1, omega_0) = 0: the ray's span is the mirror of s_1
    P = projector(_span_basis(f))
    w = rs.fundamental_weights[0]
    mirror = np.outer(w, w) / (w @ w)
    assert np.abs(P - mirror).max() <= 1e-12
    assert abs(rs.simple_roots[1] @ rs.fundamental_weights[0]) <= 1e-12


def subsets(n):
    return [I for k in range(n + 1) for I in itertools.combinations(range(n), k)]


@pytest.mark.parametrize("spec", ALL_GROUPS)
def test_face_span_equals_facet_intersection(spec, built):
    # span(F_I) is the intersection of the chamber's facet hyperplanes
    # outside I: the unit facet normals d_j, j outside I, are orthogonal to
    # an SVD basis of span(F_I).  F_I's Gram matrix is the principal
    # submatrix of the chamber's, and the Cholesky basis the counting
    # checks sample in spans span(F_I) orthonormally
    rs, g = built(spec)
    geo = Geometry(rs, g)
    ch = geo.chamber
    normals = ch.dual_basis / np.linalg.norm(ch.dual_basis, axis=1, keepdims=True)
    for I in subsets(rs.n):
        f = geo.face(I)
        rest = [j for j in range(rs.n) if j not in I]
        assert f.dim == len(I)
        assert np.abs(f.generators - rs.fundamental_weights[list(I)]).max(initial=0.0) == 0.0
        assert np.abs(f.gram - ch.gram[np.ix_(I, I)]).max(initial=0.0) <= 1e-12
        if not I:
            continue
        B = svd_basis(f.generators)
        assert np.abs(normals[rest] @ B.T).max(initial=0.0) <= 1e-9
        cholesky = _span_basis(f)
        assert np.abs(cholesky @ cholesky.T - np.eye(len(I))).max() <= 1e-12
        assert np.abs(projector(cholesky) - projector(B)).max() <= 1e-12


def test_quotient_extremes(built):
    # the parabolic check samples C/F_I in the span of (C/F_I)*, whose
    # generators are C/F_I's facet normals: at I = {} the whole space and
    # the chamber's facet normals, at I = {0..n-1} nothing
    rs, g = built("B3")
    geo = Geometry(rs, g)
    qd = geo.quotient_dual(())
    assert np.abs(projector(_span_basis(qd)) - np.eye(3)).max() <= 1e-12
    assert np.abs(qd.generators - geo.chamber.dual_basis).max() <= 1e-12
    assert geo.quotient_dual((0, 1, 2)).dim == 0


def test_quotient_a2_is_ray_in_orthogonal_line(built):
    rs, g = built("A2")
    qd = Geometry(rs, g).quotient_dual((0,))
    basis = _span_basis(qd)
    assert basis.shape == (1, 2)
    assert abs(basis[0] @ rs.fundamental_weights[0]) <= 1e-12


def test_quotient_dual_extremes(built):
    rs, g = built("B3")
    geo = Geometry(rs, g)
    qd = geo.quotient_dual(())
    d = dual(geo.chamber)
    assert np.abs(np.sort(qd.generators, axis=0)
                  - np.sort(d.generators, axis=0)).max() <= 1e-9
    assert geo.quotient_dual((0, 1, 2)).dim == 0


def test_quotient_dual_a2_is_ray_along_alpha2(built):
    rs, g = built("A2")
    qd = Geometry(rs, g).quotient_dual((0,))
    assert qd.dim == 1
    assert np.linalg.norm(qd.generators[0] - rs.simple_roots[1]) <= 1e-9


@pytest.mark.parametrize("spec", ALL_GROUPS)
def test_quotient_dual_consistency_all_subsets(spec, built):
    # (C/F_I)* is the dual of the quotient C/F_I within its span: the dual
    # basis of the oracle quotient equals, row by row and in order, the
    # generators of the geometry's (C/F_I)*, the simple roots outside I.
    # Its Gram matrix is the principal submatrix of the dual chamber's, and
    # its Cholesky basis spans span(F_I)-perp
    rs, g = built(spec)
    geo = Geometry(rs, g)
    for I in subsets(rs.n):
        rest = [j for j in range(rs.n) if j not in I]
        qd, q = geo.quotient_dual(I), quotient(geo.chamber, I)
        assert qd.dim == q.dim == rs.n - len(I)
        assert np.abs(qd.gram - geo.dual.gram[np.ix_(rest, rest)]).max(initial=0.0) <= 1e-12
        if not rest:
            continue
        D = qd.generators
        assert np.abs(D - rs.simple_roots[rest]).max() <= 1e-12
        gap = np.linalg.norm(q.dual_basis - D, axis=1) / np.linalg.norm(D, axis=1)
        assert gap.max() <= 1e-8
        basis = _span_basis(qd)
        assert np.abs(basis @ basis.T - np.eye(len(rest))).max() <= 1e-12
        face_span = projector(svd_basis(rs.fundamental_weights[list(I)]))
        assert np.abs(projector(basis) + face_span - np.eye(rs.n)).max() <= 1e-12


def test_derived_cones_carry_the_root_system_tolerances():
    tol = ccl.ToleranceConfig(eps_rank=1e-5, eps_root_match=1e-4)
    rs = ccl.build(ccl.GroupType.parse("B3"), tol)
    geo = Geometry(rs, ccl.enumerate_group(rs))
    ch = geo.chamber
    derived = [ch, dual(ch), geo.dual]
    for I in subsets(rs.n):
        derived += [face(ch, I), geo.face(I), geo.quotient_dual(I)]
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
