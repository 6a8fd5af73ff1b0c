import itertools
import math

import numpy as np
import pytest

import ccl
from ccl.angles import (CHUNK_SIZE, PLACKETT_MAX_NODES, PLACKETT_NODES,
                        AngleEstimate, AngleMethod, McConfig,
                        _binomial_stderr, _gauss_legendre, _measure_class,
                        _measure_mc, _measure_plackett, _normal_correlation,
                        _quadrature, congruence_key, count_nonnegative,
                        measure)
from ccl.cones import SimplicialCone, chamber, dual, face

MC = McConfig(samples=200_000, seed=42)
MC_BIG = McConfig(samples=1_000_000, seed=42)


def image_cone(M, c):
    """The cone w C for an orthogonal matrix M representing w."""
    return SimplicialCone.from_generators(c.generators @ M.T)


def test_zero_cone_measure_is_one():
    z = SimplicialCone.from_generators([], ambient_dim=3)
    est = measure(z)
    assert est.value == 1.0 and est.stderr == 0.0
    assert est.method is AngleMethod.EXACT0


def test_ray_measure_is_half(built):
    rs, _ = built("A2")
    est = measure(face(chamber(rs), (0,)))
    assert est.value == 0.5 and est.method is AngleMethod.EXACT1


def test_a2_dual_cone_measure(built):
    rs, _ = built("A2")
    est = measure(dual(chamber(rs)))
    assert est.method is AngleMethod.EXACT2_ARC
    assert abs(est.value - 1 / 3) <= 1e-12


def test_octant_girard():
    est = measure(SimplicialCone.from_generators(np.eye(3)))
    assert est.method is AngleMethod.EXACT3_GIRARD
    assert abs(est.value - 1 / 8) <= 1e-12


def triangle_solid_angle(a, b, c):
    """Independent oracle: solid angle of the spherical triangle spanned by
    three unit vectors, via the planar-determinant half-angle formula."""
    det = np.linalg.det(np.array([a, b, c]))
    d = 1.0 + a @ b + b @ c + c @ a
    return 2.0 * math.atan2(abs(det), d)


def test_arc_matches_atan2_formula():
    # the angle atan2(|det|, a . b) between the generators a, b; the two
    # thin cones, at angles 2e-7 and pi - 2e-7, have a facet-normal
    # correlation within 2e-14 of -1 or 1, where asin loses about 1e-10
    rng = np.random.default_rng(17)
    gens = [(g, 1e-12) for g in rng.standard_normal((50, 2, 2))
            if abs(np.linalg.det(g)) >= 0.1]
    gens += [(np.array([[1.0, 0.0], [math.cos(a), math.sin(a)]]), 1e-9)
             for a in (2e-7, math.pi - 2e-7)]
    for g, tol in gens:
        est = measure(SimplicialCone.from_generators(g))
        assert est.method is AngleMethod.EXACT2_ARC
        expected = math.atan2(abs(np.linalg.det(g)), g[0] @ g[1]) / (2.0 * math.pi)
        assert abs(est.value - expected) <= tol


def test_girard_matches_determinant_formula(built):
    rng = np.random.default_rng(17)
    cones = []
    for _ in range(50):
        g = rng.standard_normal((3, 3))
        if abs(np.linalg.det(g)) < 0.1:
            continue
        cones.append((SimplicialCone.from_generators(g), 1e-12))
    rs, _ = built("B3")
    cones.append((dual(chamber(rs)), 1e-12))
    rs, _ = built("H3")
    cones.append((dual(chamber(rs)), 1e-12))
    # height 1e-7 over a plane: nearly a half-space, with facet-normal
    # correlations near 1, where asin is ill-conditioned
    h, s = 1e-7, math.sqrt(3.0) / 2.0
    cones.append((SimplicialCone.from_generators(
        [[1.0, 0.0, h], [-0.5, s, h], [-0.5, -s, h]]), 1e-9))
    for c, tol in cones:
        unit = c.generators / np.linalg.norm(c.generators, axis=1, keepdims=True)
        expected = triangle_solid_angle(*unit) / (4.0 * math.pi)
        assert abs(measure(c).value - expected) <= tol


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "B2", "B3", "I2(5)",
                                  "I2(12)", "H3"])
def test_chamber_measure_is_one_over_order_exact(spec, built):
    rs, g = built(spec)
    est = measure(chamber(rs))
    assert est.stderr == 0.0
    assert abs(est.value - 1 / g.order) <= 1e-9


@pytest.mark.parametrize("spec", ["A4", "B4", "D4", "F4"])
def test_chamber_measure_is_one_over_order_mc(spec, built):
    rs, g = built(spec)
    est = measure(chamber(rs), MC_BIG)
    assert est.method is AngleMethod.MONTE_CARLO
    assert abs(est.value - 1 / g.order) <= 4 * est.stderr + 1e-12


def test_rotation_invariance_exact(built):
    rs, g = built("B3")
    ch = chamber(rs)
    base = measure(ch).value
    for i in np.random.default_rng(2).integers(0, g.order, 10):
        est = measure(image_cone(g.matrix_stack[int(i)], ch))
        assert abs(est.value - base) <= 1e-9


def test_rotation_invariance_mc(built):
    rs, g = built("F4")
    d = dual(chamber(rs))
    a = measure(d, McConfig(samples=400_000, seed=7))
    w = g.matrix_stack[g.left_mult[0, 0]]   # s_0
    b = measure(image_cone(w, d), McConfig(samples=400_000, seed=8))
    joint = math.hypot(a.stderr, b.stderr)
    assert abs(a.value - b.value) <= 4 * joint


def test_mc_agrees_with_exact_2d(built):
    rs, _ = built("I2(7)")
    d = dual(chamber(rs))
    exact = measure(d).value
    est = _measure_mc(d, MC_BIG)
    assert est.method is AngleMethod.MONTE_CARLO
    assert abs(est.value - exact) <= 4 * est.stderr


def test_mc_agrees_with_exact_3d(built):
    rs, _ = built("H3")
    d = dual(chamber(rs))
    exact = measure(d).value
    est = _measure_mc(d, MC_BIG)
    assert abs(est.value - exact) <= 4 * est.stderr


def test_half_space_fraction(built):
    # a ray holds half of the directions of its own line
    rs, _ = built("F4")
    est = _measure_mc(face(chamber(rs), (0,)), MC)
    assert est.method is AngleMethod.MONTE_CARLO
    assert abs(est.value - 0.5) <= 4 * est.stderr


def test_f4_chamber_indicator_fraction(built):
    # the counting kernel on the chamber's own facet normals, with draws
    # independent of the per-class stream and its canonical cone
    rs, g = built("F4")
    ch = chamber(rs)
    pts = np.random.default_rng(42).standard_normal((1_000_000, 4))
    hits = count_nonnegative(pts, ch.dual_basis)
    p = hits / len(pts)
    assert abs(p - 1 / g.order) <= 4 * math.sqrt(p * (1 - p) / len(pts))


def test_orthant_4d_fraction():
    est = measure(SimplicialCone.from_generators(np.eye(4)), MC_BIG)
    assert abs(est.value - 1 / 16) <= 4 * est.stderr


def test_count_nonnegative_orthant():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((100_000, 2))
    n = count_nonnegative(pts, np.eye(2))
    assert abs(n / 100_000 - 0.25) < 0.01


def test_count_nonnegative_dimension_mismatch():
    with pytest.raises(ValueError):
        count_nonnegative(np.zeros((4, 3)), np.eye(2))


def test_count_nonnegative_counts_zero_and_rejects_below_it():
    # the hit test is >= 0 with no band: a zero facet coordinate is inside,
    # -1e-12 is outside
    pts = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [-1e-12, 1.0],
                    [1.0, -1e-12]])
    assert count_nonnegative(pts, np.eye(2)) == 3
    assert count_nonnegative(pts[3:], np.eye(2)) == 0


def test_six_dimensional_cone_needs_a_sample_count():
    c = SimplicialCone.from_generators(np.eye(6))
    with pytest.raises(ccl.InvalidArgumentError, match="McConfig.samples"):
        measure(c, McConfig())
    est = measure(c, McConfig(samples=20_000))
    assert est.method is AngleMethod.MONTE_CARLO and est.samples == 20_000
    assert abs(est.value - 1 / 64) <= 4 * est.stderr


@pytest.mark.parametrize("spec,hits", [("F4", 180), ("A5", 265), ("B4", 501)],
                         ids=["F4", "A5", "B4"])
def test_mc_pinned_counts(spec, hits, built):
    # Pins the per-class sample stream, the canonical cone and the hit test
    # together: any change to one moves these counts, and with them every
    # Monte Carlo report.
    rs, _ = built(spec)
    est = measure(chamber(rs), MC)
    assert est.value == hits / MC.samples


def test_mc_deterministic_same_seed():
    c = SimplicialCone.from_generators(np.eye(4))
    a = measure(c, McConfig(samples=100_000, seed=5))
    b = measure(c, McConfig(samples=100_000, seed=5))
    assert a.value == b.value


def test_mc_changes_with_seed():
    c = SimplicialCone.from_generators(np.eye(4))
    a = measure(c, McConfig(samples=100_000, seed=5))
    b = measure(c, McConfig(samples=100_000, seed=6))
    assert a.value != b.value


def test_mc_congruent_cones_share_one_estimate(built):
    rs, g = built("F4")
    d = dual(chamber(rs))
    base = measure(d, MC)
    for i in (1, 17, 500, 1151):
        assert measure(image_cone(g.matrix_stack[i], d), MC) == base


def test_mc_permuted_generators_share_one_estimate():
    gens = np.eye(4) + 0.3 * np.tri(4)
    base = measure(SimplicialCone.from_generators(gens), MC)
    for perm in ((3, 2, 1, 0), (1, 0, 3, 2), (2, 3, 0, 1)):
        c = SimplicialCone.from_generators(gens[list(perm)])
        assert congruence_key(c) == base.key
        assert measure(c, MC) == base
    # scaling a generator changes neither the cone nor its key
    scaled = SimplicialCone.from_generators(gens * np.array([[2.0], [1], [5], [1]]))
    assert measure(scaled, MC) == base
    # a cone of another class gets another key
    assert congruence_key(SimplicialCone.from_generators(np.eye(4))) != base.key


def test_mc_memo_is_order_independent():
    cones = [SimplicialCone.from_generators(np.eye(4) + t) for t in (0.0, 0.1, 0.2)]
    mc = McConfig(samples=50_000, seed=11)
    _measure_class.cache_clear()
    forward = [measure(c, mc) for c in cones]
    _measure_class.cache_clear()
    backward = [measure(c, mc) for c in reversed(cones)][::-1]
    assert forward == backward


def test_mc_no_hits_has_nonzero_stderr(built):
    # an F4 chamber holds 1/1152 of the directions: 1 000 samples see none
    rs, _ = built("F4")
    est = measure(chamber(rs), McConfig(samples=1_000, seed=42))
    assert est.value == 0.0
    assert est.stderr == 4.0 / (1_000 + 16.0)
    assert est.value + 4 * est.stderr >= 1 / 1152


def test_mc_all_hits_has_nonzero_stderr():
    assert _binomial_stderr(1_000, 1_000) == 4.0 / (1_000 + 16.0)


def test_mc_partial_final_chunk():
    # samples deliberately not a multiple of CHUNK_SIZE
    assert 100_001 % CHUNK_SIZE != 0
    c = SimplicialCone.from_generators(np.eye(4))
    est = measure(c, McConfig(samples=100_001, seed=3))
    assert est.samples == 100_001
    assert abs(est.value - 1 / 16) <= 6 * est.stderr


def test_mc_config_validation():
    with pytest.raises(ccl.InvalidArgumentError):
        McConfig(samples=10)
    with pytest.raises(ccl.InvalidArgumentError):
        McConfig(seed=-1)


def test_angle_estimate_validation():
    with pytest.raises(ccl.InvalidArgumentError):
        AngleEstimate(1.5, 0.0, AngleMethod.EXACT0)
    with pytest.raises(ccl.InvalidArgumentError):
        AngleEstimate(0.5, 0.1, AngleMethod.EXACT1)


def test_measure_rejects_degenerate():
    with pytest.raises(ccl.DegenerateConeError):
        SimplicialCone.from_generators([[1.0, 0.0], [-1.0, 0.0]])


# ---------------------------------------------------------------------------
# exact dimension 4-5 measures by Plackett's reduction

PLACKETT_GROUPS = ["A4", "A5", "B4", "D4", "F4", "H4"]


def cone_with_normal_gram(R):
    """A full-dimensional cone whose unit inward facet normals have Gram
    matrix R: the normals are the rows of R's Cholesky factor L, and the
    generators the rows of L^-T."""
    return SimplicialCone.from_generators(np.linalg.inv(np.linalg.cholesky(R)).T)


@pytest.mark.parametrize("n", [4, 5])
def test_plackett_orthant_closed_forms(n):
    orthant = measure(SimplicialCone.from_generators(np.eye(n)))
    assert orthant.method is AngleMethod.EXACT_PLACKETT
    assert abs(orthant.value - 2.0 ** -n) <= 1e-12
    # equicorrelated orthant, rho = 1/2: 1 / (n + 1)
    R = np.full((n, n), 0.5) + 0.5 * np.eye(n)
    c = cone_with_normal_gram(R)
    assert np.abs(c.dual_basis @ c.dual_basis.T - R).max() <= 1e-12
    assert abs(measure(c).value - 1 / (n + 1)) <= 1e-12


@pytest.mark.parametrize("spec", PLACKETT_GROUPS)
def test_plackett_chamber_and_dual_chamber(spec, built):
    rs, g = built(spec)
    ch = chamber(rs)
    for cone, expected in ((ch, 1 / g.order),
                           (dual(ch), g.counts_by_fixed_dim[0] / g.order)):
        est = measure(cone)
        assert est.method is AngleMethod.EXACT_PLACKETT
        assert est.stderr == 0.0 and est.samples == 0 and est.key is None
        assert abs(est.value - expected) <= 1e-12


MEASURE_VALUED = ("curious", "main", "decomposition", "parabolic",
                  "equiv-measure")


@pytest.mark.parametrize("spec", PLACKETT_GROUPS)
def test_plackett_agrees_with_mc_on_suite_classes(spec, built, monkeypatch):
    # every class of dimension 4-5 the suite measures, against a pinned-seed
    # Monte Carlo estimate of it
    rs, g = built(spec)
    classes = {}

    def record(cone, *args, **kwargs):
        if cone.dim >= 4:
            classes.setdefault(congruence_key(cone), cone)
        return measure(cone, *args, **kwargs)

    monkeypatch.setattr(ccl.verify, "measure", record)
    ccl.run_suite(rs, g, MEASURE_VALUED, trials=1)
    assert classes
    for cone in classes.values():
        exact = measure(cone)
        assert exact.method is AngleMethod.EXACT_PLACKETT
        est = measure(cone, MC)
        assert abs(est.value - exact.value) <= 4 * est.stderr


def measure_stack(grams):
    """Measures of the cones whose generators have the Gram matrices of a
    stack, shape (cones, k, k): the stacked Plackett quadrature for k = 4
    and 5, and closed forms computed here for k <= 3 (the arc and the
    Van Oosterom-Strackee solid angle of the unit generators)."""
    k = grams.shape[-1]
    if k >= 4:
        return _measure_plackett(_normal_correlation(grams))
    if k <= 1:
        return np.full(len(grams), 0.5 ** k)
    scale = np.sqrt(np.diagonal(grams, axis1=1, axis2=2))
    g = grams / (scale[:, :, None] * scale[:, None, :])
    if k == 2:
        return np.arccos(g[:, 0, 1]) / (2.0 * math.pi)
    solid = 2.0 * np.arctan2(np.sqrt(np.linalg.det(g)),
                             1.0 + g[:, 0, 1] + g[:, 1, 2] + g[:, 0, 2])
    return solid / (4.0 * math.pi)


def intrinsic_volumes(grams):
    """v_k(C) = sum over |I| = k of sigma(F_I) sigma((C/F_I)*), k = 0..n,
    for each cone of a stack given by the Gram matrices M of its
    generators, shape (cones, n, n): F_I has the Gram matrix M[I, I] and
    (C/F_I)*, the cone on the facet normals outside I, M^-1[rest, rest]."""
    n = grams.shape[-1]
    inverse = np.linalg.inv(grams)
    v = np.zeros((len(grams), n + 1))
    for k in range(n + 1):
        for I in map(list, itertools.combinations(range(n), k)):
            rest = [j for j in range(n) if j not in I]
            v[:, k] += (measure_stack(grams[:, I][:, :, I])
                        * measure_stack(inverse[:, rest][:, :, rest]))
    return v


def test_intrinsic_volumes_of_the_orthant():
    # v_k of the orthant in R^n is C(n, k) / 2^n
    v = intrinsic_volumes(np.eye(5)[None])[0]
    assert np.abs(v - [math.comb(5, k) / 32 for k in range(6)]).max() <= 1e-12


@pytest.mark.parametrize("spec,cones", [("A4", 2), ("A5", 12), ("B4", 2),
                                        ("D4", 2), ("F4", 2), ("H4", 2)])
def test_conic_gauss_bonnet_on_suite_cones(spec, cones, built, monkeypatch):
    # for a cone that is not a subspace, sum_k v_k = 1 and
    # sum_k (-1)^k v_k = 0 (P. McMullen 1975; Amelunxen, Lotz, McCoy and
    # Tropp 2014): an exact check of every cone of dimension 4-5 a default
    # suite measures, each Plackett value tied to lower-dimensional ones.
    # A rank-4 group measures its chamber and dual chamber; A5 also its
    # five faces and five quotient duals of dimension 4
    rs, g = built(spec)
    measured = {}

    def record(cone, *args, **kwargs):
        if cone.dim >= 4:
            measured[id(cone)] = cone
        return measure(cone, *args, **kwargs)

    monkeypatch.setattr(ccl.verify, "measure", record)
    assert all(r.passed for r in ccl.run_suite(rs, g))
    assert len(measured) == cones
    for cone in measured.values():
        v = intrinsic_volumes(cone.gram[None])[0]
        assert abs(v.sum() - 1.0) <= 1e-12
        assert abs(v @ (-1.0) ** np.arange(len(v))) <= 1e-12


def test_plackett_too_few_nodes_raises(built, monkeypatch):
    # doubling from 2 nodes converges by 512/1024, so the cap comes down too
    rs, _ = built("H4")
    d = dual(chamber(rs))
    monkeypatch.setattr(ccl.angles, "PLACKETT_NODES", 2)
    monkeypatch.setattr(ccl.angles, "PLACKETT_MAX_NODES", 8)
    with pytest.raises(ccl.NumericalError, match="did not converge"):
        measure(d)


def golub_welsch(m):
    """Gauss-Legendre nodes and weights on [0, 1] from the eigenvalues and
    eigenvectors of the Legendre Jacobi matrix."""
    k = np.arange(1, m)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return (nodes + 1.0) / 2.0, vecs[0] ** 2


@pytest.mark.parametrize("m", [64, 128, 256])
def test_gauss_legendre_nodes_match_golub_welsch(m):
    t, w = _gauss_legendre(m)
    oracle_t, oracle_w = golub_welsch(m)
    assert np.abs(t - oracle_t).max() <= 1e-15
    assert np.abs(w - oracle_w).max() <= 1e-15
    # the m-point rule integrates t^k exactly for k <= 2m - 1
    k = np.arange(2 * m)
    moments = (w * t ** k[:, None]).sum(axis=1)
    assert np.abs(moments * (k + 1) - 1.0).max() <= 1e-13


def test_gauss_legendre_raises_when_newton_does_not_converge(monkeypatch):
    monkeypatch.setattr(ccl.angles, "NEWTON_STEPS", 1)
    with pytest.raises(ccl.NumericalError, match="did not converge"):
        _gauss_legendre.__wrapped__(64)


@pytest.fixture(scope="module")
def random_five_cones():
    """200 cones on standard-normal generators in R^5, and each one's
    measure, or None where it raises NumericalError."""
    cones = [SimplicialCone.from_generators(g)
             for g in np.random.default_rng(0).standard_normal((200, 5, 5))]
    values = []
    for c in cones:
        try:
            values.append(measure(c).value)
        except ccl.NumericalError as exc:
            assert "did not converge" in str(exc)
            values.append(None)
    return cones, values


def test_plackett_converges_on_random_cones_by_the_cap(random_five_cones):
    # 156 of them converge at 64/128 nodes, 183 by 128/256 and 193 by 256/512
    cones, values = random_five_cones
    converged = [v for v in values if v is not None]
    assert len(converged) == 196 and PLACKETT_MAX_NODES == 1024
    for c, v in zip(cones, values):
        if v is None:
            with pytest.raises(ccl.NumericalError, match="did not converge"):
                measure(c)


def test_plackett_stack_equals_a_per_cone_loop(random_five_cones):
    cones, values = random_five_cones
    R = _normal_correlation(np.array([c.gram for c in cones]))
    ok = np.array([v is not None for v in values])
    # the stack spans several of the quadrature's chunks of cones
    assert ok.sum() > ccl.angles.QUADRATURE_ROWS // (2 * ccl.angles.PLACKETT_NODES)
    stacked = _measure_plackett(R[ok])
    assert np.abs(stacked - [v for v in values if v is not None]).max() <= 1e-15
    # one cone that does not converge fails the whole stack, and is named
    pair = [int(np.flatnonzero(ok)[0]), int(np.flatnonzero(~ok)[0])]
    with pytest.raises(ccl.NumericalError, match="on cone 1:"):
        _measure_plackett(R[pair])


def test_quadrature_makes_no_linalg_call(random_five_cones, monkeypatch):
    # the quadrature is elementwise: 3x3 minors and closed forms, with no
    # LAPACK call whose last bits depend on the BLAS kernel
    cones, values = random_five_cones
    R = _normal_correlation(np.array([c.gram for c in cones]))
    calls = []
    for name in np.linalg.__all__:
        f = getattr(np.linalg, name)
        if callable(f) and not isinstance(f, type):
            monkeypatch.setattr(np.linalg, name, lambda *a, _f=f, _name=name,
                                **kw: calls.append(_name) or _f(*a, **kw))
    assert len(_quadrature(R, PLACKETT_NODES)) == len(cones)
    assert calls == []


def test_conic_gauss_bonnet_on_random_cones(random_five_cones):
    cones, values = random_five_cones
    grams = np.array([c.gram for c, v in zip(cones, values) if v is not None])
    v = intrinsic_volumes(grams)
    assert np.abs(v.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(v @ (-1.0) ** np.arange(6)).max() <= 1e-12


def orthant_2(rho):
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


def orthant_3(R):
    return 0.125 + (math.asin(R[0, 1]) + math.asin(R[0, 2])
                    + math.asin(R[1, 2])) / (4.0 * math.pi)


@pytest.mark.parametrize("rho,nodes", [(-0.999, 512), (0.9999, 1024)])
def test_plackett_on_thin_product_cones(rho, nodes, monkeypatch):
    # a cone whose facet-normal correlation is block diagonal is a product
    # of cones, and its orthant probability is the product of theirs.  A
    # block close to singular needs more nodes: nodes / 2 against nodes
    R3 = np.array([[1.0, 0.3, -0.4], [0.3, 1.0, 0.2], [-0.4, 0.2, 1.0]])
    R5, R4 = np.eye(5), np.eye(4)
    R5[:2, :2] = R4[:2, :2] = [[1.0, rho], [rho, 1.0]]
    R5[2:, 2:] = R3
    R4[2:, 2:] = [[1.0, 0.5], [0.5, 1.0]]
    five = _measure_plackett(R5[None])[0]
    assert abs(five - orthant_2(rho) * orthant_3(R3)) <= 1e-15
    four = _measure_plackett(R4[None])[0]
    assert abs(four - orthant_2(rho) * orthant_2(0.5)) <= 1e-15
    monkeypatch.setattr(ccl.angles, "PLACKETT_MAX_NODES", nodes // 2)
    with pytest.raises(ccl.NumericalError, match="did not converge"):
        _measure_plackett(R5[None])


@pytest.mark.parametrize("spec", ["A5", "F4"])
def test_default_suite_draws_no_samples(spec, built):
    rs, g = built(spec)
    before = _measure_class.cache_info().misses
    reports = ccl.run_suite(rs, g, mc=McConfig())
    assert _measure_class.cache_info().misses == before
    assert reports and all(r.samples == 0 and r.passed for r in reports)
    assert all(r.tolerance_rule.startswith("exact") for r in reports)
