"""Exact enumeration of the reflection group and its subgroup machinery.

Elements are identified by their permutation of the root list, which is
exact even though the matrices are floating point.  Enumeration is a
breadth-first closure of the simple reflections with a fixed generator
order and lexicographic tie-breaking inside each word-length layer, so
element indices are stable across runs.

A Group holds its elements as stacked arrays (permutations, matrices,
fixed-space dimensions); ``Group.index_of`` maps a permutation back to its
element index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import GroupTooLargeError, InvalidArgumentError, NumericalError
from .linalg import SPAN_MATCH_TOL, Subspace, ToleranceConfig
from .roots import RootSystem

__all__ = ["Group", "Subgroup", "enumerate_group", "group_from_perm_stack",
           "solomon_check", "parabolic_subgroup", "regular_count",
           "normalizer_of_span", "subspace_orbits"]

DEFAULT_ELEMENT_CAP = 20_000


@dataclass
class Group:
    """The enumerated reflection group, held as stacked per-element arrays."""

    root_system: RootSystem
    order: int
    counts_by_fixed_dim: tuple[int, ...]
    simple_reflection_ids: tuple[int, ...]
    fixed_dims: np.ndarray = field(repr=False)        # (order,)
    matrix_stack: np.ndarray = field(repr=False)      # (order, n, n) read-only
    perm_stack: np.ndarray = field(repr=False)        # (order, num_roots) int32
    _index: dict[bytes, int] = field(repr=False, default_factory=dict)

    @property
    def n(self) -> int:
        return self.root_system.n

    def index_of(self, perm) -> int:
        key = np.asarray(perm, dtype=np.int32).tobytes()
        idx = self._index.get(key)
        if idx is None:
            raise InvalidArgumentError("permutation is not an element of this group")
        return idx


@dataclass(frozen=True)
class Subgroup:
    """A subset of a Group closed under composition, held as element indices."""

    parent: Group
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, idx: int) -> bool:
        return idx in set(self.indices)

    def matrices(self) -> np.ndarray:
        return self.parent.matrix_stack[list(self.indices)]


def _simple_reflection_perms(rs: RootSystem) -> np.ndarray:
    perms = np.empty((rs.n, rs.num_roots), dtype=np.int32)
    for j in range(rs.n):
        a = rs.simple_roots[j]
        images = rs.all_roots - 2.0 * np.outer(rs.all_roots @ a, a)
        perms[j] = [rs.match_root(v) for v in images]
    return perms


def enumerate_group(rs: RootSystem, cap: int = DEFAULT_ELEMENT_CAP,
                    tol: ToleranceConfig | None = None) -> Group:
    """Breadth-first closure of the simple reflections.

    Raises GroupTooLargeError when more than ``cap`` elements appear.
    """
    tol = tol or rs.tol
    n, nroots = rs.n, rs.num_roots
    gen_perms = _simple_reflection_perms(rs)

    identity = np.arange(nroots, dtype=np.int32)
    perms: list[np.ndarray] = [identity]
    index: dict[bytes, int] = {identity.tobytes(): 0}

    layer = [0]
    while layer:
        discovered: dict[bytes, np.ndarray] = {}
        for idx in layer:
            base = perms[idx]
            for g in gen_perms:
                new = g[base]  # left-multiply by the generator
                key = new.tobytes()
                if key not in index and key not in discovered:
                    discovered[key] = new
        fresh = sorted(discovered.values(), key=lambda p: p.tolist())
        layer = []
        for p in fresh:
            if len(perms) >= cap:
                raise GroupTooLargeError(f"group exceeds element cap {cap}")
            index[p.tobytes()] = len(perms)
            perms.append(p)
            layer.append(len(perms) - 1)

    perm_stack = np.array(perms, dtype=np.int32)
    return _assemble_group(rs, perm_stack, index, gen_perms, tol)


def group_from_perm_stack(rs: RootSystem, perm_stack: np.ndarray,
                          tol: ToleranceConfig | None = None) -> Group:
    """Rebuild a Group from an explicit permutation list (cache reload).

    Element order is preserved.  A breadth-first search from the identity
    over the given set checks that it is closed under the simple reflections
    and generated by them.  Raises InvalidArgumentError if the list has
    duplicates, does not start with the identity, or fails either check.
    """
    tol = tol or rs.tol
    perm_stack = np.asarray(perm_stack, dtype=np.int32)
    gen_perms = _simple_reflection_perms(rs)
    order, nroots = perm_stack.shape
    if nroots != rs.num_roots:
        raise InvalidArgumentError("permutation length does not match root count")
    index = {perm_stack[i].tobytes(): i for i in range(order)}
    if len(index) != order:
        raise InvalidArgumentError("duplicate permutations in element list")
    if (perm_stack[0] != np.arange(nroots, dtype=np.int32)).any():
        raise InvalidArgumentError("element 0 must be the identity")

    visited = np.zeros(order, dtype=bool)
    visited[0] = True
    layer = [0]
    while layer:
        nxt = []
        for idx in layer:
            for gp in gen_perms:
                j = index.get(gp[perm_stack[idx]].tobytes())
                if j is None:
                    raise InvalidArgumentError(
                        "element list is not closed under the generators")
                if not visited[j]:
                    visited[j] = True
                    nxt.append(j)
        layer = nxt
    if not visited.all():
        raise InvalidArgumentError("element list is not generated by the "
                                   "simple reflections")
    return _assemble_group(rs, perm_stack, index, gen_perms, tol)


def _assemble_group(rs: RootSystem, perm_stack: np.ndarray,
                    index: dict[bytes, int], gen_perms: np.ndarray,
                    tol: ToleranceConfig) -> Group:
    n = rs.n
    order = perm_stack.shape[0]

    # Reconstruct matrices from the images of the simple roots.
    simple_idx = np.array([rs.match_root(rs.simple_roots[j]) for j in range(n)])
    A_inv = np.linalg.inv(rs.simple_roots)            # rows alpha_i
    images = rs.all_roots[perm_stack[:, simple_idx]]  # (order, n, n) rows = images
    mats = np.einsum("kij,jl->kil", np.transpose(images, (0, 2, 1)), A_inv.T)
    # mats[k] = images[k].T @ A_inv.T  ==  (A_inv @ images[k]).T

    eye = np.eye(n)
    ortho_err = np.abs(np.einsum("kij,kil->kjl", mats, mats) - eye).max()
    if ortho_err > 1e-9:
        raise NumericalError(
            f"reconstructed matrices not orthogonal (err {ortho_err:.2e})")
    mats.setflags(write=False)

    # dim ker(1 - w) for every w at once, by the rule of kernel_dimension
    sv = np.linalg.svd(eye - mats, compute_uv=False)
    fixed = (sv < tol.eps_rank).sum(axis=1)
    counts = tuple(int(c) for c in np.bincount(fixed, minlength=n + 1))

    sid = tuple(index[gen_perms[j].tobytes()] for j in range(n))
    return Group(
        root_system=rs,
        order=order,
        counts_by_fixed_dim=counts,
        simple_reflection_ids=sid,
        fixed_dims=fixed,
        matrix_stack=mats,
        perm_stack=perm_stack,
        _index=index,
    )


def solomon_check(g: Group, exps) -> bool:
    """Exact check that sum_k |W^{n-k}| t^k equals prod_i (1 + m_i t)."""
    exps = list(exps)
    n = g.n
    if len(exps) != n:
        raise InvalidArgumentError(f"expected {n} exponents, got {len(exps)}")
    poly = [1]
    for m in exps:
        poly = [a + m * b for a, b in zip(poly + [0], [0] + poly)]
    counts = [g.counts_by_fixed_dim[n - k] for k in range(n + 1)]
    return poly == counts


def parabolic_subgroup(g: Group, I) -> Subgroup:
    """Subgroup generated by the simple reflections {s_j : j not in I}.

    This is exactly the pointwise stabilizer of span{omega_i : i in I}
    (Steinberg fixator property); the equality is asserted.
    """
    I = frozenset(int(i) for i in I)
    if not I <= set(range(g.n)):
        raise InvalidArgumentError(f"I must be a subset of 0..{g.n - 1}")
    gens = [g.simple_reflection_ids[j] for j in range(g.n) if j not in I]

    members = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for idx in frontier:
            for s in gens:
                prod = g.index_of(g.perm_stack[s][g.perm_stack[idx]])
                if prod not in members:
                    members.add(prod)
                    nxt.append(prod)
        frontier = nxt
    indices = tuple(sorted(members))

    # Steinberg: generated subgroup == pointwise fixator of the face span.
    fixed_pts = g.root_system.fundamental_weights[sorted(I)]
    if fixed_pts.shape[0]:
        moved = np.abs(g.matrix_stack @ fixed_pts.T
                       - fixed_pts.T[None, :, :]).max(axis=(1, 2))
        fixator = tuple(int(i) for i in np.flatnonzero(moved <= SPAN_MATCH_TOL))
    else:
        fixator = tuple(range(g.order))
    if fixator != indices:
        raise NumericalError(
            "parabolic subgroup does not match the pointwise fixator")
    return Subgroup(g, indices)


def regular_count(sub: Subgroup, ambient_subspace_dim: int) -> int:
    """Number of subgroup elements acting fixed-point-freely on a subspace
    of the stated dimension (their global fixed space is exactly the
    orthogonal complement)."""
    g = sub.parent
    target = g.n - ambient_subspace_dim
    return int(np.sum(g.fixed_dims[list(sub.indices)] == target))


def normalizer_of_span(g: Group, S: Subspace) -> Subgroup:
    """Elements mapping the subspace onto itself, by projector comparison."""
    P = S.projector()
    stack = g.matrix_stack
    imgs = stack @ P @ np.transpose(stack, (0, 2, 1))
    keep = np.abs(imgs - P).max(axis=(1, 2)) <= SPAN_MATCH_TOL
    return Subgroup(g, tuple(int(i) for i in np.flatnonzero(keep)))


def subspace_orbits(g: Group, k: int) -> list[list[tuple[int, ...]]]:
    """Partition the k-subsets I by W-equivalence of span{omega_i : i in I}.

    Two subsets are equivalent when some group element maps one span onto
    the other.  Classes are sorted by their lexicographically least member,
    which also serves as the class representative.
    """
    n = g.n
    if not 0 <= k <= n:
        raise InvalidArgumentError(f"k must be in 0..{n}")
    subsets = [tuple(c) for c in itertools.combinations(range(n), k)]
    if k == 0 or k == n:
        return [[subsets[0]]]

    W = g.root_system.fundamental_weights
    projectors = []
    for I in subsets:
        S = Subspace.from_spanning(W[list(I)], ambient_dim=n)
        projectors.append(S.projector())
    P = np.array(projectors)

    stack = g.matrix_stack
    parent = list(range(len(subsets)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for i in range(len(subsets)):
        orbit = stack @ P[i] @ np.transpose(stack, (0, 2, 1))  # (order, n, n)
        for j in range(len(subsets)):
            if find(i) == find(j):
                continue
            if np.abs(orbit - P[j]).max(axis=(1, 2)).min() <= SPAN_MATCH_TOL:
                union(i, j)

    classes: dict[int, list[tuple[int, ...]]] = {}
    for i, I in enumerate(subsets):
        classes.setdefault(find(i), []).append(I)
    return [sorted(cls) for _, cls in sorted(classes.items(),
                                             key=lambda kv: min(kv[1]))]
