"""Exact enumeration of the reflection group and its subgroup machinery.

Elements are identified by their permutation of the root list, which is
exact even though the matrices are floating point.  Enumeration is a
breadth-first closure of the simple reflections with a fixed generator
order and lexicographic tie-breaking inside each word-length layer, so
element indices are stable across runs.

A Group holds its elements as stacked arrays (permutations, matrices,
fixed-space dimensions) and the table ``left_mult`` of the index of s_j w,
looked up by sorting on the simple-root images, which determine an element.
Generation checks and parabolic subgroups are array closures over its rows.
Face spans are matched as root subsets on the permutation table: w carries
span(F_J) onto span(F_I) when it sends the simple roots outside J into
span(F_I)-perp.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import GroupTooLargeError, InvalidArgumentError, NumericalError
from .linalg import SPAN_MATCH_TOL, ToleranceConfig
from .roots import RootSystem

__all__ = ["Group", "Subgroup", "enumerate_group", "group_from_perm_stack",
           "solomon_check", "parabolic_subgroup", "regular_count",
           "normalizer_of_span", "subspace_orbits", "span_carriers"]

DEFAULT_ELEMENT_CAP = 20_000

# Largest entry of |w^T w - 1| accepted for a matrix rebuilt from its
# simple-root images.  Over every supported group it stays below 1.5e-13,
# while a wrong permutation row moves an entry by order 1, so the check
# does not depend on the value.
ORTHOGONALITY_TOL = 1e-9


@dataclass
class Group:
    """The enumerated reflection group, held as stacked per-element arrays."""

    root_system: RootSystem
    order: int
    counts_by_fixed_dim: tuple[int, ...]
    fixed_dims: np.ndarray = field(repr=False)        # (order,)
    matrix_stack: np.ndarray = field(repr=False)      # (order, n, n) read-only
    perm_stack: np.ndarray = field(repr=False)        # (order, num_roots) int32
    left_mult: np.ndarray = field(repr=False)         # (n, order): index of s_j w

    @property
    def n(self) -> int:
        return self.root_system.n

    @property
    def simple_reflection_ids(self) -> tuple[int, ...]:
        return tuple(int(i) for i in self.left_mult[:, 0])


@dataclass(frozen=True)
class Subgroup:
    """A subset of a Group closed under composition, held as element indices."""

    parent: Group
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

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
    return _assemble_group(rs, perm_stack, gen_perms, tol)


# Rows per block of the closure check; whole-table temporaries add tens of MiB for H4.
_ROW_BLOCK = 1024


def group_from_perm_stack(rs: RootSystem, perm_stack: np.ndarray,
                          tol: ToleranceConfig | None = None) -> Group:
    """Rebuild a Group from an explicit permutation list (cache reload).

    Element order is preserved.  Raises InvalidArgumentError if the list
    does not start with the identity, has duplicates, is not closed under
    the simple reflections (whole rows are compared) or is not generated
    by them.
    """
    tol = tol or rs.tol
    perm_stack = np.asarray(perm_stack, dtype=np.int32)
    gen_perms = _simple_reflection_perms(rs)
    order, nroots = perm_stack.shape
    if nroots != rs.num_roots:
        raise InvalidArgumentError("permutation length does not match root count")
    if (perm_stack[0] != np.arange(nroots, dtype=np.int32)).any():
        raise InvalidArgumentError("element 0 must be the identity")
    g = _assemble_group(rs, perm_stack, gen_perms, tol)
    for gp, row in zip(gen_perms, g.left_mult):
        for b in range(0, order, _ROW_BLOCK):
            block = slice(b, b + _ROW_BLOCK)
            if (perm_stack[row[block]] != gp[perm_stack[block]]).any():
                raise InvalidArgumentError(
                    "element list is not closed under the generators")
    if not _closure(g.left_mult).all():
        raise InvalidArgumentError("element list is not generated by the "
                                   "simple reflections")
    return g


def _closure(table: np.ndarray) -> np.ndarray:
    """Mask of the elements reachable from the identity (index 0) through
    the generators whose rows of ``left_mult`` make up ``table``."""
    order = table.shape[1]
    reached = np.zeros(order, dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        new = np.zeros(order, dtype=bool)
        new[table[:, frontier]] = True
        new &= ~reached
        reached |= new
        frontier = np.flatnonzero(new)
    return reached


def _assemble_group(rs: RootSystem, perm_stack: np.ndarray,
                    gen_perms: np.ndarray, tol: ToleranceConfig) -> Group:
    n = rs.n
    order = perm_stack.shape[0]
    simple_images = perm_stack[:, rs.simple_ids]      # (order, n) root indices

    # The simple-root images, read as base-num_roots digits, key an element.
    digits = rs.num_roots ** np.arange(n, dtype=np.int64)
    keys = simple_images.astype(np.int64) @ digits
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    if (sorted_keys[1:] == sorted_keys[:-1]).any():
        raise InvalidArgumentError("duplicate permutations in element list")
    prods = gen_perms[:, simple_images].astype(np.int64) @ digits  # (n, order)
    pos = np.minimum(np.searchsorted(sorted_keys, prods), order - 1)
    if (sorted_keys[pos] != prods).any():
        raise InvalidArgumentError("element list is not closed under the generators")
    left_mult = by_key[pos]

    # Reconstruct matrices from the images of the simple roots.
    A_inv = np.linalg.inv(rs.simple_roots)            # rows alpha_i
    images = rs.all_roots[simple_images]              # (order, n, n) rows = images
    mats = np.einsum("kij,jl->kil", np.transpose(images, (0, 2, 1)), A_inv.T)
    # mats[k] = images[k].T @ A_inv.T  ==  (A_inv @ images[k]).T

    eye = np.eye(n)
    ortho_err = np.abs(np.einsum("kij,kil->kjl", mats, mats) - eye).max()
    if ortho_err > ORTHOGONALITY_TOL:
        raise NumericalError(
            f"reconstructed matrices not orthogonal (err {ortho_err:.2e})")
    mats.setflags(write=False)

    # dim ker(1 - w) for every w at once, by the rule of kernel_dimension
    sv = np.linalg.svd(eye - mats, compute_uv=False)
    fixed = (sv < tol.eps_rank).sum(axis=1)
    counts = tuple(int(c) for c in np.bincount(fixed, minlength=n + 1))

    return Group(
        root_system=rs,
        order=order,
        counts_by_fixed_dim=counts,
        fixed_dims=fixed,
        matrix_stack=mats,
        perm_stack=perm_stack,
        left_mult=left_mult,
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


def _face_subset(g: Group, I) -> frozenset[int]:
    I = frozenset(int(i) for i in I)
    if not I <= set(range(g.n)):
        raise InvalidArgumentError(f"I must be a subset of 0..{g.n - 1}")
    return I


def parabolic_subgroup(g: Group, I) -> Subgroup:
    """Subgroup generated by the simple reflections {s_j : j not in I}.

    This is exactly the pointwise stabilizer of span{omega_i : i in I}
    (Steinberg fixator property); the equality is asserted.
    """
    I = _face_subset(g, I)
    gens = [j for j in range(g.n) if j not in I]
    indices = tuple(int(i) for i in np.flatnonzero(_closure(g.left_mult[gens])))

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


def span_carriers(g: Group, I, J, within: np.ndarray | bool = True) -> np.ndarray:
    """Mask of the elements w with w . span(F_J) = span(F_I), for |I| = |J|:
    those sending the simple roots outside J, which span span(F_J)-perp, to
    roots orthogonal to span(F_I) (and, given the root mask ``within``, in
    it).  The complements have equal dimension, so into is onto."""
    rs = g.root_system
    targets = rs.orthogonal_roots(I) & within
    rest = [j for j in range(g.n) if j not in J]
    return targets[g.perm_stack[:, rs.simple_ids[rest]]].all(axis=1)


def normalizer_of_span(g: Group, I) -> Subgroup:
    """Elements mapping span{omega_i : i in I} onto itself."""
    I = _face_subset(g, I)
    return Subgroup(g, tuple(int(i) for i in np.flatnonzero(span_carriers(g, I, I))))


def subspace_orbits(g: Group, k: int) -> list[list[tuple[int, ...]]]:
    """Partition the k-subsets I by W-equivalence of span{omega_i : i in I}.

    Two subsets are equivalent when some group element maps one span onto
    the other.  Classes are sorted by their lexicographically least member,
    which also serves as the class representative.
    """
    n = g.n
    if not 0 <= k <= n:
        raise InvalidArgumentError(f"k must be in 0..{n}")
    # W-orbits partition the subsets, so the class of the first unplaced
    # subset is every unplaced subset some element carries onto it.
    unplaced = list(itertools.combinations(range(n), k))
    classes = []
    while unplaced:
        cls = [J for J in unplaced if span_carriers(g, unplaced[0], J).any()]
        classes.append(cls)
        unplaced = [J for J in unplaced if J not in cls]
    return classes
