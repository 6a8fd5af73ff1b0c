import dataclasses
import gzip
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import ccl
from ccl.cache import load_group
from ccl.cones import chamber
from ccl.groups import (Group, _conjugacy_labels, _element_index, _right_mult,
                        enumerate_group, group_from_simple_images,
                        normalizer_of_span, parabolic_subgroup, regular_count,
                        solomon_check, subspace_orbits)
from ccl.roots import SUPPORTED_TYPES

ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "A5": 720,
    "B2": 8, "B3": 48, "B4": 384, "D4": 192,
    "I2(5)": 10, "I2(9)": 18, "H3": 120, "F4": 1152,
}


def h4_schema3_file(directory):
    """H4's cache file as `ccl build --group H4` wrote it (schema 3) when the
    group was enumerated one element and one generator at a time."""
    path = directory / "H4.json"
    packed = Path(__file__).parent / "data" / "H4-schema3.json.gz"
    path.write_bytes(gzip.decompress(packed.read_bytes()))
    return path


# ---------------------------------------------------------------------------
# independent oracles

def perm_rows(g):
    """(order, num_roots) int32 table of each element's permutation of the
    root list, read off its matrix: entry (w, c) is the index of the root
    nearest to w applied to root c, which must lie within eps_root_match."""
    rs = g.root_system
    rows = []
    for m in g.matrix_stack:
        d = np.linalg.norm((rs.all_roots @ m.T)[:, None] - rs.all_roots[None], axis=2)
        assert d.min(axis=1).max() <= rs.tol.eps_root_match
        rows.append(d.argmin(axis=1))
    return np.array(rows, dtype=np.int32)


def element_index(rows):
    """Dict from a permutation row's bytes to its element index."""
    return {row.tobytes(): i for i, row in enumerate(rows)}


def compose(rows, i, j, index=None):
    """Index of element i times element j (apply j first) in the
    permutation table ``rows``; raises KeyError if the product is not in
    the group."""
    index = element_index(rows) if index is None else index
    return index[rows[i][rows[j]].tobytes()]


def simple_reflection_perms(rs):
    """Root permutation of each simple reflection, by nearest root."""
    perms = []
    for a in rs.simple_roots:
        images = rs.all_roots - 2.0 * np.outer(rs.all_roots @ a, a)
        d = np.linalg.norm(images[:, None, :] - rs.all_roots[None], axis=2)
        perms.append(d.argmin(axis=1))
    return perms


def stirling_counts(n):
    """Fixed-dim profile of S_{n+1} on its essential n-dim representation:
    fixed dimension = (#cycles - 1)."""
    counts = [0] * (n + 1)
    for p in itertools.permutations(range(n + 1)):
        seen, ncyc = set(), 0
        for i in range(n + 1):
            if i not in seen:
                ncyc += 1
                j = i
                while j not in seen:
                    seen.add(j)
                    j = p[j]
        counts[ncyc - 1] += 1
    return counts


def signed_perm_counts(n, even_only=False):
    """Fixed-dim profile of signed permutations: fixed dimension equals the
    number of sign-positive cycles."""
    counts = [0] * (n + 1)
    for p in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            if even_only and int(np.prod(signs)) != 1:
                continue
            seen, pos = set(), 0
            for i in range(n):
                if i not in seen:
                    j, s = i, 1
                    while j not in seen:
                        seen.add(j)
                        s *= signs[j]
                        j = p[j]
                    if s == 1:
                        pos += 1
            counts[pos] += 1
    return counts


def dihedral_counts(m):
    """Fixed-dim profile of the order-2m dihedral group from explicit
    rotation/reflection matrices."""
    counts = [0, 0, 0]
    for k in range(m):
        t = 2 * math.pi * k / m
        rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        ref = np.array([[math.cos(t), math.sin(t)], [math.sin(t), -math.cos(t)]])
        for M in (rot, ref):
            s = np.linalg.svd(np.eye(2) - M, compute_uv=False)
            counts[int((s < 1e-9).sum())] += 1
    return counts


def sequential_bfs(rs):
    """Reference enumeration: apply one generator to one element at a time,
    keep each permutation row not met before and order each word-length
    layer lexicographically on its rows."""
    gens = [p.astype(np.int32) for p in simple_reflection_perms(rs)]
    perms = [np.arange(rs.num_roots, dtype=np.int32)]
    index = {perms[0].tobytes()}
    layer = perms[:]
    while layer:
        discovered = {}
        for base in layer:
            for gen in gens:
                new = gen[base]
                if new.tobytes() not in index:
                    discovered[new.tobytes()] = new
        layer = sorted(discovered.values(), key=lambda p: p.tolist())
        index.update(discovered)
        perms.extend(layer)
    return np.array(perms, dtype=np.int32)


def partition_count(n):
    """Number of partitions of n."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def class_number(t):
    """Number of conjugacy classes: partitions of n+1 for A_n (cycle
    types), pairs of partitions of sizes summing to n for B_n (signed cycle
    types), and the tabulated values of the dihedral and exceptional
    groups."""
    if t.family == "A":
        return partition_count(t.rank + 1)
    if t.family == "B":
        return sum(partition_count(k) * partition_count(t.rank - k)
                   for k in range(t.rank + 1))
    if t.family == "I2":
        return (t.m + 3) // 2 if t.m % 2 else (t.m + 6) // 2
    return {"D": 13, "H3": 10, "F4": 25, "H4": 34}[t.family]


def solomon_poly(exps):
    coeffs = [1]
    for m in exps:
        coeffs = [a + m * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


# ---------------------------------------------------------------------------
# enumeration

@pytest.mark.parametrize("spec,order", sorted(ORDERS.items()))
def test_orders(spec, order, built):
    _, g = built(spec)
    assert g.order == order


def test_counts_match_cycle_oracle_a_family(built):
    for n in (1, 2, 3, 4):
        _, g = built(f"A{n}")
        assert list(g.counts_by_fixed_dim) == stirling_counts(n)


def test_counts_match_signed_perm_oracle(built):
    assert list(built("B2")[1].counts_by_fixed_dim) == signed_perm_counts(2)
    assert list(built("B3")[1].counts_by_fixed_dim) == signed_perm_counts(3)
    assert list(built("B4")[1].counts_by_fixed_dim) == signed_perm_counts(4)
    assert list(built("D4")[1].counts_by_fixed_dim) == signed_perm_counts(4, True)


def test_counts_match_dihedral_oracle(built):
    for m in (3, 5, 7, 8, 12):
        _, g = built(f"I2({m})")
        assert list(g.counts_by_fixed_dim) == dihedral_counts(m)


def test_h3_counts_from_exponent_expansion(built):
    rs, g = built("H3")
    # (1+t)(1+5t)(1+9t) = 1 + 15t + 59t^2 + 45t^3, coefficient k is |W^{n-k}|
    assert solomon_poly(rs.exponents) == [1, 15, 59, 45]
    assert g.counts_by_fixed_dim == (45, 59, 15, 1)


def test_f4_counts_from_exponent_expansion(built):
    rs, g = built("F4")
    assert solomon_poly(rs.exponents) == [1, 24, 190, 552, 385]
    assert g.counts_by_fixed_dim == (385, 552, 190, 24, 1)


@pytest.mark.parametrize("spec", sorted(ORDERS))
def test_count_invariants(spec, built):
    rs, g = built(spec)
    assert sum(g.counts_by_fixed_dim) == g.order
    assert g.counts_by_fixed_dim[rs.n] == 1
    assert g.counts_by_fixed_dim[rs.n - 1] == rs.num_positive_roots
    assert g.order == math.prod(m + 1 for m in rs.exponents)


def test_element_zero_is_identity(built):
    rs, g = built("B3")
    rows = perm_rows(g)
    assert g.simple_images[0].tolist() == rs.simple_ids.tolist()
    assert rows[0].tolist() == list(range(rs.num_roots))
    assert element_index(rows)[np.arange(rs.num_roots, dtype=np.int32).tobytes()] == 0
    assert np.allclose(g.matrix_stack[0], np.eye(3), atol=1e-12)


def test_matrix_perm_consistency(built):
    for spec in ("A3", "B3", "I2(7)", "F4"):
        rs, g = built(spec)
        # full rows from the independent oracle, in g's element order
        rows = sequential_bfs(rs)
        for k in np.random.default_rng(5).integers(0, g.order, 25):
            images = rs.all_roots @ g.matrix_stack[k].T
            for i, img in enumerate(images):
                assert np.linalg.norm(rs.all_roots[rows[k, i]] - img) \
                    <= rs.tol.eps_root_match
            assert g.simple_images[k].tolist() == rows[k, rs.simple_ids].tolist()


@pytest.mark.parametrize("spec", sorted(ORDERS) + ["I2(6)", "I2(12)"])
def test_group_closure(spec, built):
    # exhaustive when |W| <= 200, 10000 random pairs otherwise
    _, g = built(spec)
    rows = perm_rows(g)
    index = element_index(rows)
    assert len(index) == g.order
    if g.order <= 200:
        for i in range(g.order):
            for j in range(g.order):
                compose(rows, i, j, index)
    else:
        rng = np.random.default_rng(99)
        for i, j in rng.integers(0, g.order, (10_000, 2)):
            compose(rows, int(i), int(j), index)


def test_bfs_is_deterministic(built):
    rs, _ = built("B3")
    g1 = enumerate_group(rs)
    g2 = enumerate_group(rs)
    assert np.array_equal(g1.simple_images, g2.simple_images)


def test_element_cap():
    rs = ccl.build(ccl.GroupType.parse("A4"))
    with pytest.raises(ccl.GroupTooLargeError):
        enumerate_group(rs, cap=50)
    # the cap admits exactly the group order
    for spec in ("A4", "H3"):
        rs = ccl.build(ccl.GroupType.parse(spec))
        order = math.prod(m + 1 for m in rs.exponents)
        assert enumerate_group(rs, cap=order).order == order
        with pytest.raises(ccl.GroupTooLargeError):
            enumerate_group(rs, cap=order - 1)


@pytest.mark.parametrize("t", SUPPORTED_TYPES, ids=str)
def test_enumeration_matches_sequential_bfs(t, built):
    # element order: breadth-first by word length, each layer sorted on the
    # full permutation rows; cache files and reports depend on it.  The
    # simple-root images determine an element, so they pin the order
    rs, g = built(str(t))
    expected = sequential_bfs(rs)[:, rs.simple_ids]
    assert g.simple_images.dtype == expected.dtype
    assert g.simple_images.tobytes() == expected.tobytes()


@pytest.mark.parametrize("t", SUPPORTED_TYPES, ids=str)
def test_no_group_array_is_indexed_by_root(t, built):
    # an element is held by its n simple-root images, not by a row over the
    # whole root list: every array of a Group has at most order * n * n
    # entries (the matrix stack), below order * num_roots for every type
    rs, g = built(str(t))
    arrays = [getattr(g, f.name) for f in dataclasses.fields(Group)
              if isinstance(getattr(g, f.name), np.ndarray)]
    assert len(arrays) == 4
    assert max(a.size for a in arrays) <= g.order * rs.n * rs.n < g.order * rs.num_roots


def test_h4_schema3_file_written_before_loads_as_enumerated(tmp_path, built):
    rs, g = built("H4")
    loaded = load_group(rs, h4_schema3_file(tmp_path))
    for f in dataclasses.fields(Group):
        a, b = getattr(loaded, f.name), getattr(g, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def test_group_from_simple_images_round_trip(built):
    rs, g = built("B3")
    g2 = group_from_simple_images(rs, g.simple_images)
    assert np.array_equal(g2.simple_images, g.simple_images)
    assert np.array_equal(perm_rows(g2), perm_rows(g))
    assert g2.counts_by_fixed_dim == g.counts_by_fixed_dim
    with pytest.raises(ccl.InvalidArgumentError):
        # identity not first
        group_from_simple_images(rs, g.simple_images[1:])


def test_group_from_simple_images_rejects_unclosed_and_ungenerated(built):
    rs, g = built("A2")
    images = g.simple_images
    with pytest.raises(ccl.InvalidArgumentError, match="not closed"):
        group_from_simple_images(rs, images[:-1])
    # -1 permutes the roots but is not in W(A2); W and its coset W(-1)
    # together are closed under the generators yet not generated by them.
    # w(-1) sends alpha_i to -w(alpha_i)
    neg = np.array([rs._nearest_roots(-v[None])[0] for v in rs.all_roots])
    both = np.vstack([images, neg[images]])
    with pytest.raises(ccl.InvalidArgumentError, match="not generated"):
        group_from_simple_images(rs, both)


def test_group_from_simple_images_rejects_non_root_entries(built):
    rs, g = built("A2")
    images = g.simple_images.copy()
    with pytest.raises(ccl.InvalidArgumentError, match="columns"):
        # the full permutation table
        group_from_simple_images(rs, perm_rows(g))
    images[3, 1] = rs.num_roots
    with pytest.raises(ccl.InvalidArgumentError, match="not a root index"):
        group_from_simple_images(rs, images)
    images[3, 1] = -1
    with pytest.raises(ccl.InvalidArgumentError, match="not a root index"):
        group_from_simple_images(rs, images)


def test_non_orthogonal_matrices_are_numerical_error(built, monkeypatch):
    # the matrices are rebuilt through the inverse of the simple roots;
    # scaled by 1 + 1e-8, every w^T w is off the identity by about 2e-8
    rs, g = built("B3")
    inv = np.linalg.inv
    monkeypatch.setattr(ccl.groups.np.linalg, "inv",
                        lambda a: (1 + 1e-8) * inv(a))
    with pytest.raises(ccl.NumericalError, match="not orthogonal"):
        group_from_simple_images(rs, g.simple_images)


def geometric_right_mult(rs, g):
    """Oracle (order, n, n) table of the root indices of (w s_j)(alpha_i) =
    s_{w alpha_j}(w alpha_i), read off a table of the reflection in every
    root whose entries are matched to roots by explicit distances."""
    R = rs.all_roots
    table = []
    for r in R:
        images = R - 2.0 * np.outer(R @ r, r)
        d = np.linalg.norm(images[:, None] - R[None], axis=2)
        assert d.min(axis=1).max() <= rs.tol.eps_root_match
        table.append(d.argmin(axis=1))
    images = g.simple_images
    return np.array(table)[images[:, :, None], images[:, None, :]]


def conjugacy_components(conj):
    """Least index of each element's component under w ~ conj[j, w], by a
    union-find over the edges."""
    parent = list(range(conj.shape[1]))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for j in range(conj.shape[0]):
        for w, c in enumerate(conj[j].tolist()):
            a, b = root(w), root(c)
            parent[max(a, b)] = min(a, b)
    return np.array([root(w) for w in range(conj.shape[1])])


@pytest.mark.parametrize("t", SUPPORTED_TYPES, ids=str)
def test_right_mult_and_conjugates_match_geometric_oracle(t, built):
    # w s_j and s_j w s_j from the left-multiplication table alone equal
    # the elements found by the images of w s_j and of s_j w s_j
    rs, g = built(str(t))
    find = _element_index(rs, g.simple_images)
    ws = geometric_right_mult(rs, g)
    right = _right_mult(g.left_mult)
    assert np.array_equal(right, find(ws))
    sj_ws = rs.simple_reflections[np.arange(rs.n)[None, :, None], ws]
    conj = find(sj_ws).T                  # (n, order): s_j w s_j
    assert np.array_equal(np.take_along_axis(g.left_mult, right.T, axis=1), conj)
    labels = _conjugacy_labels(g.left_mult, right)
    assert np.array_equal(labels, conjugacy_components(conj))
    assert len(np.unique(labels)) == class_number(t)


@pytest.mark.parametrize("spec", ["A3", "B3", "H3"])
def test_right_mult_is_the_matrix_product(spec, built):
    rs, g = built(spec)
    right = _right_mult(g.left_mult)
    for j, a in enumerate(rs.simple_roots):
        s_j = np.eye(rs.n) - 2.0 * np.outer(a, a)
        assert np.abs(g.matrix_stack[right[:, j]] - g.matrix_stack @ s_j).max() <= 1e-12


def wrap_searchsorted(monkeypatch):
    """List that records the number of queries of every np.searchsorted."""
    sizes = []
    searchsorted = np.searchsorted

    def recorded(a, v, *args, **kwargs):
        sizes.append(np.size(v))
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", recorded)
    return sizes


@pytest.mark.parametrize("t", SUPPORTED_TYPES, ids=str)
def test_enumeration_makes_one_element_key_search(t, monkeypatch):
    # the layers search their new keys among the keys seen so far (fewer
    # than n * order queries each); the Group's set-up makes one search of
    # the n * order images of s_j w, and none for s_j w s_j
    rs = ccl.build(t)
    sizes = wrap_searchsorted(monkeypatch)
    g = enumerate_group(rs)
    assert sizes.count(rs.n * g.order) == 1
    assert sorted(sizes)[-2] < rs.n * g.order


def test_h4_cache_load_makes_one_element_key_search(tmp_path, monkeypatch):
    rs = ccl.build(ccl.GroupType.parse("H4"))
    path = h4_schema3_file(tmp_path)
    sizes = wrap_searchsorted(monkeypatch)
    g = load_group(rs, path)
    assert sizes == [rs.n * g.order]


def test_enumerate_and_load_make_no_nearest_root_search(tmp_path, monkeypatch):
    # root indices of reflections come from the root system's table of
    # simple reflections, not from a nearest-root search per element: the
    # only searches left are each root system's n * num_roots images in
    # that table and its n simple roots, once each, in any order
    from ccl.cache import load_group, save_group
    rows = []
    nearest = ccl.RootSystem._nearest_roots
    monkeypatch.setattr(ccl.RootSystem, "_nearest_roots",
                        lambda self, v: rows.append(len(v)) or nearest(self, v))
    rs = ccl.build(ccl.GroupType.parse("H3"))
    fresh = ccl.build(rs.group_type)
    g = enumerate_group(rs)
    save_group(g, tmp_path / "h3.json")
    load_group(fresh, tmp_path / "h3.json")
    assert sorted(rows) == sorted([rs.n * rs.num_roots, rs.n] * 2)


# ---------------------------------------------------------------------------
# fixed spaces

def test_fixed_space_dim_identity_and_reflections(built):
    rs, g = built("B3")
    assert g.fixed_dims[0] == 3
    for sid in g.left_mult[:, 0]:
        assert g.fixed_dims[sid] == 2


def test_fixed_space_dim_coxeter_element_a2(built):
    rs, g = built("A2")
    s1, s2 = g.left_mult[:, 0]
    cox = compose(perm_rows(g), s1, s2)
    assert g.fixed_dims[cox] == 0
    # oracle: the product of the two reflections is a 120-degree rotation
    tr = np.trace(g.matrix_stack[cox])
    assert abs(tr - 2 * math.cos(2 * math.pi / 3)) <= 1e-9


@pytest.mark.parametrize("spec", [str(t) for t in SUPPORTED_TYPES])
def test_batched_fixed_dims_match_kernel_dimension(spec, built):
    rs, g = built(spec)
    eye = np.eye(rs.n)
    # oracle: the kernel dimension of each 1 - w, by its own rank
    per_element = [rs.n - np.linalg.matrix_rank(eye - m, tol=rs.tol.eps_rank)
                   for m in g.matrix_stack]
    assert g.fixed_dims.tolist() == per_element


def wrap_svd(monkeypatch):
    """List that records the shape of every np.linalg.svd argument."""
    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return shapes


@pytest.mark.parametrize("t", SUPPORTED_TYPES, ids=str)
def test_one_fixed_space_svd_per_conjugacy_class(t, monkeypatch):
    rs = ccl.build(t)
    shapes = wrap_svd(monkeypatch)
    enumerate_group(rs)
    assert shapes == [(class_number(t), rs.n, rs.n)]


def test_h4_cache_load_makes_one_svd_of_34_matrices(tmp_path, monkeypatch):
    rs = ccl.build(ccl.GroupType.parse("H4"))
    path = h4_schema3_file(tmp_path)
    shapes = wrap_svd(monkeypatch)
    load_group(rs, path)
    assert shapes == [(34, 4, 4)]


def test_matrix_stack_read_only(built):
    rs, _ = built("B3")
    g = enumerate_group(rs)
    assert not g.matrix_stack.flags.writeable
    with pytest.raises(ValueError):
        g.matrix_stack[0, 0, 0] = 2.0
    assert not g.matrix_stack[1].flags.writeable
    assert not g.simple_images.flags.writeable


# ---------------------------------------------------------------------------
# Solomon formula

def test_solomon_a2(built):
    _, g = built("A2")
    assert solomon_check(g, (1, 2))
    assert not solomon_check(g, (1, 3))


def test_solomon_b2(built):
    _, g = built("B2")
    assert solomon_check(g, (1, 3))


@pytest.mark.parametrize("spec", sorted(ORDERS))
def test_solomon_all(spec, built):
    rs, g = built(spec)
    assert solomon_check(g, rs.exponents)


def test_solomon_rejects_wrong_length(built):
    _, g = built("A2")
    with pytest.raises(ccl.InvalidArgumentError):
        solomon_check(g, (1, 2, 3))


# ---------------------------------------------------------------------------
# parabolics, normalizers, orbits

def test_parabolic_extremes(built):
    rs, g = built("B3")
    assert len(parabolic_subgroup(g, range(rs.n))) == 1
    assert len(parabolic_subgroup(g, ())) == g.order


def test_parabolic_fixator_mismatch_is_numerical_error(built):
    # generators listed out of order no longer generate the fixator of the
    # face span: an internal fault, not a usage error
    _, g = built("B3")
    wrong = dataclasses.replace(g, left_mult=g.left_mult[::-1])
    with pytest.raises(ccl.NumericalError):
        parabolic_subgroup(wrong, {0})


class CountingStack(np.ndarray):
    """Matrix stack that counts the products it takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountingStack.products += 1
        inputs = tuple(x.view(np.ndarray) if isinstance(x, CountingStack) else x
                       for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        if func in (np.einsum, np.dot, np.tensordot, np.inner):
            CountingStack.products += 1
        return super().__array_function__(func, types, args, kwargs)


def test_parabolic_subgroups_multiply_the_matrix_stack_once(built, monkeypatch):
    # the Steinberg fixators of all 16 subsets come from one table per group
    _, g = built("H4")
    fresh = dataclasses.replace(g, matrix_stack=g.matrix_stack.view(CountingStack))
    monkeypatch.setattr(CountingStack, "products", 0)
    subsets = [I for k in range(5) for I in itertools.combinations(range(4), k)]
    subgroups = [parabolic_subgroup(fresh, I) for I in subsets]
    assert CountingStack.products == 1
    assert np.array_equal(subgroups[0], np.arange(g.order))
    # read-only ascending index arrays
    for sub in subgroups:
        assert not sub.flags.writeable
        assert (np.diff(sub) > 0).all()
    # W_I is generated by s_j, j not in I, on the path 0 -5- 1 -3- 2 -3- 3:
    # H4, A3, A1xA2, I2(5)xA1, H3, A2, A1xA1, A2, A1xA1 (twice), I2(5), ...
    assert [len(sub) for sub in subgroups] == [
        14400, 24, 12, 20, 120, 6, 4, 6, 4, 4, 10, 2, 2, 2, 2, 1]


def test_parabolic_a2_single_index(built):
    rs, g = built("A2")
    sub = parabolic_subgroup(g, (0,))
    assert len(sub) == 2
    # brute-force fixator oracle over all six elements
    w0 = rs.fundamental_weights[0]
    fix = [i for i in range(g.order)
           if np.linalg.norm(g.matrix_stack[i] @ w0 - w0) <= 1e-9]
    assert sub.tolist() == fix


def test_regular_count_examples(built):
    rs, g = built("A2")
    trivial = parabolic_subgroup(g, range(rs.n))
    assert regular_count(g, trivial, 0) == 1
    sub = parabolic_subgroup(g, (0,))
    assert regular_count(g, sub, 1) == 1
    rs3, g3 = built("H3")
    assert regular_count(g3, parabolic_subgroup(g3, ()), 3) == 45


def test_normalizer_full_space(built):
    rs, g = built("A2")
    assert len(normalizer_of_span(g, range(rs.n))) == g.order


def test_normalizer_a2_vs_b2_weight_line(built):
    rs, g = built("A2")
    assert len(normalizer_of_span(g, (0,))) == 2
    rs, g = built("B2")
    assert len(normalizer_of_span(g, (0,))) == 4  # contains the half-turn


def test_normalizer_rejects_non_subset(built):
    _, g = built("A2")
    with pytest.raises(ccl.InvalidArgumentError):
        normalizer_of_span(g, (2,))


def test_subspace_orbits_extremes(built):
    rs, g = built("B3")
    assert subspace_orbits(g, rs.n) == [[(0, 1, 2)]]
    assert subspace_orbits(g, 0) == [[()]]


def test_subspace_orbits_a2_vs_b2(built):
    _, g = built("A2")
    assert subspace_orbits(g, 1) == [[(0,), (1,)]]  # one mirror orbit
    _, g = built("B2")
    assert subspace_orbits(g, 1) == [[(0,)], [(1,)]]  # axes vs diagonals


def test_dihedral_mirror_normalizers_parity(built):
    # odd m: all mirrors conjugate, line normalizer = {e, reflection};
    # even m: two mirror classes, normalizer gains the half-turn and the
    # perpendicular reflection
    for m in (5, 7, 9, 11):
        rs, g = built(f"I2({m})")
        assert len(subspace_orbits(g, 1)) == 1
        assert len(normalizer_of_span(g, (0,))) == 2
    for m in (4, 6, 8, 12):
        rs, g = built(f"I2({m})")
        assert len(subspace_orbits(g, 1)) == 2
        assert len(normalizer_of_span(g, (0,))) == 4


def test_chambers_through_face_bijection(built):
    # the chambers whose closure contains a face are exactly the translates
    # by the face's pointwise fixator, one chamber per element
    for spec in ("A2", "B2", "A3", "B3"):
        rs, g = built(spec)
        ch = chamber(rs)
        rng = np.random.default_rng(11)
        for k in range(1, rs.n + 1):
            for I in itertools.combinations(range(rs.n), k):
                coeffs = rng.uniform(0.2, 1.0, size=len(I))
                p = coeffs @ rs.fundamental_weights[list(I)]
                # w C contains p when w^{-1} p = w^T p is in the closed chamber
                back = np.einsum("mji,j->mi", g.matrix_stack, p)
                closed = (back @ ch.dual_basis.T >= -1e-9).all(axis=1)
                hits = {int(i) for i in np.flatnonzero(closed)}
                sub = parabolic_subgroup(g, I)
                assert hits == set(sub.tolist())


def test_subgroup_is_closed(built):
    _, g = built("B3")
    sub = parabolic_subgroup(g, (1,))
    idx = set(sub.tolist())
    rows = perm_rows(g)
    index = element_index(rows)
    for i in sub:
        for j in sub:
            assert compose(rows, i, j, index) in idx


def test_inverse(built):
    _, g = built("B3")
    rows = perm_rows(g)
    inverse_perms = np.argsort(rows, axis=1).astype(np.int32)
    index = element_index(rows)
    for i in range(g.order):
        j = index[inverse_perms[i].tobytes()]
        assert compose(rows, i, j, index) == 0
        assert compose(rows, j, i, index) == 0


@pytest.mark.parametrize("spec", ["B3", "F4"])
def test_left_mult_matches_dict_oracle(spec, built):
    rs, g = built(spec)
    rows = perm_rows(g)
    index = element_index(rows)
    for j, s in enumerate(simple_reflection_perms(rs)):
        expected = [index[s[row].astype(np.int32).tobytes()] for row in rows]
        assert g.left_mult[j].tolist() == expected
    # s_j times the identity is the simple reflection s_j
    assert rows[g.left_mult[:, 0]].tolist() == [
        s.tolist() for s in simple_reflection_perms(rs)]


def test_subspace_orbits_are_w_orbits(built):
    # oracle: two subsets are equivalent when some element maps one span's
    # projector onto the other's
    for t in SUPPORTED_TYPES:
        rs, g = built(str(t))
        W = rs.fundamental_weights
        for k in range(1, rs.n):
            subsets = list(itertools.combinations(range(rs.n), k))
            # projector onto the row span of V: V^T (V V^T)^-1 V
            P = {I: W[list(I)].T @ np.linalg.solve(W[list(I)] @ W[list(I)].T,
                                                   W[list(I)])
                 for I in subsets}
            images = {I: g.matrix_stack @ P[I] @ np.transpose(g.matrix_stack, (0, 2, 1))
                      for I in subsets}

            def same(I, J):
                return np.abs(images[I] - P[J]).max(axis=(1, 2)).min() <= 1e-8

            classes = subspace_orbits(g, k)
            assert sorted(I for cls in classes for I in cls) == subsets
            assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes)
            for cls in classes:
                assert cls == sorted(cls)
                assert all(same(cls[0], J) for J in cls)
            for a, b in itertools.combinations(classes, 2):
                assert not same(a[0], b[0])
