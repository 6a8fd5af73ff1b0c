import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import ccl
from ccl.roots import (ROOT_SORT_DECIMALS, SUPPORTED_TYPES, GroupType, build,
                       generate_roots)

ROOT_COUNTS = {
    "A1": 2, "A2": 6, "A3": 12, "A4": 20, "A5": 30,
    "B2": 8, "B3": 18, "B4": 32, "D4": 24,
    "I2(3)": 6, "I2(12)": 24, "H3": 30, "F4": 48,
}


def test_parse_round_trip():
    for t in SUPPORTED_TYPES:
        assert GroupType.parse(str(t)) == t
    assert GroupType.parse("i2(7)") == GroupType("I2", 2, 7)
    assert GroupType.parse("b3") == GroupType("B", 3)


def test_rejected_types():
    with pytest.raises(ccl.UnsupportedGroupError):
        GroupType.parse("C4")
    with pytest.raises(ccl.UnsupportedGroupError):
        GroupType.parse("D3")
    with pytest.raises(ccl.UnsupportedGroupError):
        GroupType.parse("D2")
    with pytest.raises(ccl.UnsupportedGroupError):
        GroupType.parse("E7")
    with pytest.raises(ccl.UnsupportedGroupError):
        GroupType.parse("I2(2)")
    with pytest.raises(ccl.UnsupportedGroupError):
        GroupType.parse("I2(13)")
    with pytest.raises(ccl.UnsupportedGroupError):
        GroupType.parse("A9")


def test_h4_builds_by_default():
    rs = build(GroupType.parse("H4"))
    assert rs.num_roots == 120


@pytest.mark.parametrize("spec,count", sorted(ROOT_COUNTS.items()))
def test_root_counts(spec, count):
    rs = build(GroupType.parse(spec))
    assert rs.num_roots == count


def _classical_counts(t):
    """(|Phi|, |W|) of a supported type from the family formulas."""
    r, f = t.rank, math.factorial
    if t.family == "I2":
        return 2 * t.m, 2 * t.m
    return {"A": (r * (r + 1), f(r + 1)), "B": (2 * r * r, 2 ** r * f(r)),
            "D": (2 * r * (r - 1), 2 ** (r - 1) * f(r)), "H3": (30, 120),
            "F4": (48, 1152), "H4": (120, 14400)}[t.family]


@pytest.mark.parametrize("t", SUPPORTED_TYPES, ids=str)
def test_root_count_and_order_follow_from_exponents(t):
    # build checks |Phi| = 2 sum m_i, and |W| = prod (m_i + 1)
    rs = build(t)
    order = math.prod(m + 1 for m in rs.exponents)
    assert (rs.num_roots, order) == _classical_counts(t)


def test_a2_explicit_coordinates():
    # dihedral geometry oracle: simple roots at 120 degrees
    rs = build(GroupType.parse("A2"))
    assert np.allclose(rs.simple_roots[0], [1.0, 0.0], atol=1e-12)
    assert np.allclose(rs.simple_roots[1], [-0.5, math.sqrt(3) / 2], atol=1e-12)
    assert abs(rs.simple_roots[0] @ rs.simple_roots[1] + 0.5) <= 1e-12
    # weights: (1, 1/sqrt3) and (0, 2/sqrt3), at 60 degrees
    w = rs.fundamental_weights
    assert np.allclose(w[0], [1.0, 1 / math.sqrt(3)], atol=1e-12)
    assert np.allclose(w[1], [0.0, 2 / math.sqrt(3)], atol=1e-12)
    cosang = w[0] @ w[1] / (np.linalg.norm(w[0]) * np.linalg.norm(w[1]))
    assert abs(math.degrees(math.acos(cosang)) - 60.0) <= 1e-9


def test_i2_4_simple_roots_at_135_degrees():
    rs = build(GroupType.parse("I2(4)"))
    cosang = rs.simple_roots[0] @ rs.simple_roots[1]
    assert abs(cosang + math.sqrt(2) / 2) <= 1e-12
    assert rs.num_roots == 8


def test_h3_gram_contains_golden_cosine():
    rs = build(GroupType.parse("H3"))
    G = rs.simple_roots @ rs.simple_roots.T
    assert abs(G[0, 1] + math.cos(math.pi / 5)) <= 1e-12
    assert rs.num_roots == 30


@pytest.mark.parametrize("t", SUPPORTED_TYPES, ids=str)
def test_gram_matches_coxeter_diagram(t):
    rs = build(t)
    from ccl.roots import coxeter_matrix
    M = coxeter_matrix(t)
    expected = -np.cos(np.pi / M)
    np.fill_diagonal(expected, 1.0)
    assert np.abs(rs.simple_roots @ rs.simple_roots.T - expected).max() <= 1e-9


@pytest.mark.parametrize("t", SUPPORTED_TYPES, ids=str)
def test_roots_unit_deduplicated_and_closed(t):
    rs = build(t)
    norms = np.linalg.norm(rs.all_roots, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-9
    # closed under negation
    for v in rs.all_roots:
        assert np.linalg.norm(rs.all_roots + v, axis=1).min() <= 1e-9
    # pairwise distinct by far more than the snap tolerance
    d2 = np.linalg.norm(rs.all_roots[:, None] - rs.all_roots[None, :], axis=2)
    np.fill_diagonal(d2, np.inf)
    assert d2.min() > 100 * rs.tol.eps_root_match


@pytest.mark.parametrize("t", SUPPORTED_TYPES, ids=str)
def test_simple_reflections_permute_roots(t):
    rs = build(t)
    for j in range(rs.n):
        a = rs.simple_roots[j]
        images = rs.all_roots - 2.0 * np.outer(rs.all_roots @ a, a)
        perm = [int(rs._nearest_roots(v[None])[0]) for v in images]
        assert sorted(perm) == list(range(rs.num_roots))
        assert rs.simple_reflections[j].tolist() == perm


@pytest.mark.parametrize("t", SUPPORTED_TYPES, ids=str)
def test_reflection_table_matches_nearest_root_oracle(t):
    # entry (j, c) is the root nearest to s_j(c), by explicit distances
    rs = build(t)
    R = rs.all_roots
    for j, a in enumerate(rs.simple_roots):
        images = R - 2.0 * np.outer(R @ a, a)
        d = np.linalg.norm(images[:, None] - R[None], axis=2)
        assert d.min(axis=1).max() <= rs.tol.eps_root_match
        assert rs.simple_reflections[j].tolist() == d.argmin(axis=1).tolist()
    assert rs.simple_reflections.shape == (rs.n, rs.num_roots)
    assert rs.simple_reflections.dtype == np.int32
    assert not rs.simple_reflections.flags.writeable


def test_simple_reflections_must_permute_roots():
    # an extra unit vector 0.6 eps_root_match off a root of A2: every
    # reflected image still matches a root, but the images of that root
    # and of the extra vector match one index
    rs = build(GroupType.parse("A2"))
    r = rs.all_roots[0]
    v = r + 0.6 * rs.tol.eps_root_match * np.array([-r[1], r[0]])
    v /= np.linalg.norm(v)
    extra = dataclasses.replace(rs, all_roots=np.vstack([rs.all_roots, v]))
    with pytest.raises(ccl.NonFiniteSystemError, match="does not permute"):
        extra.simple_reflections


def test_match_root_tolerance_boundary():
    rs = build(GroupType.parse("B3"))
    eps = rs.tol.eps_root_match
    rng = np.random.default_rng(3)
    for k in (0, 5, rs.num_roots - 1):
        offset = rng.standard_normal(rs.n)
        offset /= np.linalg.norm(offset)
        near = rs.all_roots[k] + 0.5 * eps * offset
        assert rs._nearest_roots(near[None])[0] == k
        far = rs.all_roots[k] + 2.0 * eps * offset
        with pytest.raises(ccl.InvalidArgumentError, match="does not match"):
            rs._nearest_roots(far[None])


@pytest.mark.parametrize("t", SUPPORTED_TYPES, ids=str)
def test_biorthogonality_and_chamber_duality(t):
    rs = build(t)
    prods = rs.fundamental_weights @ rs.simple_roots.T
    off = prods - np.diag(np.diag(prods))
    assert np.abs(off).max() <= 1e-9
    assert np.all(np.diag(prods) > 0)
    # the dual basis of the simple-root rows reconstructs the weights
    recon = np.linalg.inv(rs.simple_roots).T
    assert np.abs(recon - rs.fundamental_weights).max() <= 1e-9


def sequential_closure(simple, eps):
    """Reference root closure: reflect one root by one generator at a time,
    keep an image unless a root kept so far lies within eps of it, and sort
    on the rounded coordinates."""
    roots = [row.copy() for row in simple]
    frontier = list(range(len(roots)))
    while frontier:
        fresh = []
        for idx in frontier:
            for a in simple:
                img = roots[idx] - 2.0 * (roots[idx] @ a) * a
                if np.linalg.norm(np.array(roots) - img, axis=1).min() > eps:
                    roots.append(img)
                    fresh.append(len(roots) - 1)
        frontier = fresh
    roots.sort(key=lambda v: tuple(np.round(v, ROOT_SORT_DECIMALS)))
    return np.array(roots)


@pytest.mark.parametrize("t", SUPPORTED_TYPES, ids=str)
def test_generate_roots_matches_sequential_closure(t):
    rs = build(t)
    expected = sequential_closure(rs.simple_roots, rs.tol.eps_root_match)
    assert rs.all_roots.shape == expected.shape
    assert rs.all_roots.tobytes() == expected.tobytes()


@pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("spec", ["A3", "B4", "H4"])
def test_generate_roots_with_small_eps_matches_sequential_closure(spec, eps):
    # below about 1e-8, eps^2 is smaller than the rounding of
    # |v|^2 + |r|^2 - 2 (v, r) for unit vectors: a root is still matched
    # to itself and to the copies of it reached by other paths
    simple = build(GroupType.parse(spec)).simple_roots
    roots = generate_roots(simple, ccl.ToleranceConfig(eps_root_match=eps))
    expected = sequential_closure(simple, eps)
    assert roots.shape == expected.shape == (ROOT_COUNTS.get(spec, 120), simple.shape[1])
    assert roots.tobytes() == expected.tobytes()


def test_generate_roots_a1():
    roots = generate_roots(np.array([[1.0]]))
    assert roots.shape == (2, 1)
    assert np.allclose(sorted(roots[:, 0]), [-1.0, 1.0])


def test_generate_roots_rejects_non_unit():
    with pytest.raises(ccl.InvalidArgumentError):
        generate_roots(np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_generate_roots_rejects_bad_gram():
    # 1.8 rad is an irrational multiple of pi: the reflection orbit of these
    # two "roots" is dense on the circle, so the closure must hit the cap
    simple = np.array([[1.0, 0.0], [math.cos(1.8), math.sin(1.8)]])
    with pytest.raises(ccl.NonFiniteSystemError):
        generate_roots(simple)


def test_generate_roots_rejects_dense_orbit_in_bounded_memory():
    # three roots at pairwise angle 1.8 rad: the orbit is dense on the
    # sphere and each layer about doubles, so the layer that crosses the cap
    # compares 13 824 images with 23 034 vectors, 2.9 GB in one product of
    # inner products.  Chunked, the closure stays within a few MiB.
    c = math.cos(1.8)
    simple = np.linalg.cholesky(np.array([[1.0, c, c], [c, 1.0, c], [c, c, 1.0]]))
    tracemalloc.start()
    try:
        with pytest.raises(ccl.NonFiniteSystemError):
            generate_roots(simple)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_fundamental_weights_orthogonal_simple_roots():
    # (omega_i, alpha_j) = delta_ij: each weight is orthogonal to every other
    # simple root, for all supported types
    for t in SUPPORTED_TYPES:
        rs = build(t)
        prods = rs.fundamental_weights @ rs.simple_roots.T
        assert np.abs(prods - np.eye(rs.n)).max() <= 1e-12, str(t)
        assert not rs.fundamental_weights.flags.writeable


def test_fundamental_weights_rank1():
    # A1: the one weight is the unit simple root itself
    rs = build(GroupType.parse("A1"))
    assert rs.fundamental_weights[0, 0] > 0
    assert np.allclose(rs.fundamental_weights, rs.simple_roots, atol=1e-12)


def test_root_coefficients_are_zero_or_at_least_one():
    # orthogonal_roots tells zero coefficients (beta, omega_i) from nonzero
    # ones by a threshold of 0.5; that needs a wide gap between the two
    for t in SUPPORTED_TYPES:
        rs = build(t)
        c = np.abs(rs.all_roots @ rs.fundamental_weights.T)
        assert ((c <= 1e-12) | (c >= 1 - 1e-12)).all(), str(t)


def test_deterministic_construction():
    a = build(GroupType.parse("F4"))
    b = build(GroupType.parse("F4"))
    assert np.array_equal(a.all_roots, b.all_roots)
    assert np.array_equal(a.simple_roots, b.simple_roots)


def test_failed_gram_check_is_numerical_error(monkeypatch):
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda G: 1.01 * cholesky(G))
    with pytest.raises(ccl.NumericalError):
        build(GroupType.parse("A2"))


def test_weights_outside_chamber_is_numerical_error(monkeypatch):
    # build reads the weights off the inverse of the simple roots; negated,
    # they lie in the opposite chamber
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: -inv(a))
    with pytest.raises(ccl.NumericalError, match="outside the chamber"):
        build(GroupType.parse("A2"))


def test_build_makes_no_svd(monkeypatch):
    # generate_roots decides the rank of the simple roots from the
    # eigenvalues of their Gram matrix, and no other step of build needs one
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    for t in SUPPORTED_TYPES:
        build(t)
    assert calls == []
