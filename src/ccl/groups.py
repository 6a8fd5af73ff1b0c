"""Exact enumeration of the reflection group and its subgroup machinery.

An element w is identified by its simple-root images, the root indices of
w alpha_1, ..., w alpha_n, which is exact even though the matrices are
floating point.  Enumeration is a breadth-first closure of the simple
reflections, one whole word-length layer per array pass, with each layer in
lexicographic order of its permutation rows (kept for the frontier only),
so element indices are stable across runs.

A Group holds its elements as stacked arrays (simple-root images, matrices,
fixed-space dimensions) and the table ``left_mult`` of the index of s_j w,
looked up by sorting on the images, the one search of element keys;
enumeration and a cache reload both build it, with the same checks, by
``group_from_simple_images``.  dim ker(1 - w) is a class function, so it
is computed by one SVD per conjugacy class.  The classes come from
``left_mult`` alone: one breadth-first pass from the identity, which is
also the check that the simple reflections generate the elements, builds
the table of w s_j = s_i (u s_j) for w = s_i u, and s_j w s_j is entry
w s_j of row j of ``left_mult``.  A subgroup is a read-only ascending
array of element indices.  Parabolic subgroups are array closures over
the rows of ``left_mult``, checked against one per-group table of the
elements fixing each fundamental weight.  Face spans are matched, by
``face_carriers`` alone, as root subsets on the images: w carries span(F_J)
onto span(F_I) when it sends the simple roots outside J into
span(F_I)-perp.  One such table per face subset I answers every face type
J at once, and the normalizer of span(F_I) is its entry J = I.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import GroupTooLargeError, InvalidArgumentError, NumericalError
from .linalg import SPAN_MATCH_TOL
from .roots import RootSystem

__all__ = ["Group", "enumerate_group", "group_from_simple_images",
           "solomon_check", "parabolic_subgroup", "regular_count",
           "normalizer_of_span", "subspace_orbits", "face_carriers"]

DEFAULT_ELEMENT_CAP = 20_000

# Largest entry of |w^T w - 1| accepted for a matrix rebuilt from its
# simple-root images.  Over every supported group it stays below 1.5e-13,
# while a wrong image moves an entry by order 1, so the check
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
    simple_images: np.ndarray = field(repr=False)     # (order, n) int32: w alpha_i
    left_mult: np.ndarray = field(repr=False)         # (n, order): index of s_j w

    @property
    def n(self) -> int:
        return self.root_system.n

    @functools.cached_property
    def fixes_weight(self) -> np.ndarray:
        """(order, n) read-only mask: entry (w, i) says that w moves no
        coordinate of omega_i by more than SPAN_MATCH_TOL.  Built on first
        use, from one product with the whole matrix stack."""
        weights = self.root_system.fundamental_weights
        # |w omega_i - omega_i| in one temporary, made absolute in place;
        # one product with the (order * n, n) rows of the stack
        stack = self.matrix_stack
        moved = (stack.reshape(-1, self.n) @ weights.T).reshape(stack.shape)
        moved -= weights.T
        fixes = np.abs(moved, out=moved).max(axis=1) <= SPAN_MATCH_TOL
        fixes.setflags(write=False)
        return fixes


def enumerate_group(rs: RootSystem, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """Breadth-first closure of the simple reflections, one word-length
    layer at a time.

    Every generator is applied to the whole frontier at once; a child is
    keyed on its simple-root images, and the keys of earlier layers and
    repeats within the layer are dropped.  Each layer is ordered
    lexicographically on its full permutation rows.  Raises
    GroupTooLargeError when more than ``cap`` elements appear.
    """
    gens = rs.simple_reflections
    identity = np.arange(rs.num_roots, dtype=np.int32)[None]
    layers = [rs.simple_ids[None].astype(np.int32)]
    seen = _image_keys(rs, layers[0])   # sorted
    size = 1
    frontier = identity
    while len(frontier):
        # keys of s_j w for every generator j and frontier element w
        keys = _image_keys(rs, gens[:, frontier[:, rs.simple_ids]]).ravel()
        by_key = np.argsort(keys)
        keys = keys[by_key]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        by_key, keys = by_key[first], keys[first]
        at = np.searchsorted(seen, keys)
        new = seen[np.minimum(at, len(seen) - 1)] != keys
        size += np.count_nonzero(new)
        if size > cap:
            raise GroupTooLargeError(f"group exceeds element cap {cap}")
        seen = np.insert(seen, at[new], keys[new])
        j, w = np.divmod(by_key[new], len(frontier))
        frontier = np.take(gens, (j * rs.num_roots)[:, None] + frontier[w])
        frontier = frontier[np.argsort(_row_bytes(frontier))]
        layers.append(frontier[:, rs.simple_ids])
    return group_from_simple_images(rs, np.concatenate(layers))


def group_from_simple_images(rs: RootSystem, simple_images: np.ndarray) -> Group:
    """Build a Group from its (order, n) table of simple-root images, as
    enumerated or cached.  An element is determined by these images.

    Element order is preserved.  Raises InvalidArgumentError if the table
    does not start with the identity, holds an entry that is not a root
    index, has duplicates, is not closed under the simple reflections or is
    not generated by them.  Fixed-space dimensions count singular values
    below ``rs.tol.eps_rank``.
    """
    simple_images = np.asarray(simple_images)
    if simple_images.ndim != 2 or simple_images.shape[1] != rs.n:
        raise InvalidArgumentError(
            f"simple-root image table must have {rs.n} columns")
    if simple_images.size and not (
            0 <= simple_images.min() and simple_images.max() < rs.num_roots):
        raise InvalidArgumentError("simple-root image is not a root index")
    if not len(simple_images) or (simple_images[0] != rs.simple_ids).any():
        raise InvalidArgumentError("element 0 must be the identity")
    simple_images = simple_images.astype(np.int32)
    find = _element_index(rs, simple_images)
    left_mult = find(rs.simple_reflections[:, simple_images])
    # the breadth-first pass that finds each w s_j also checks that the
    # simple reflections generate the elements
    labels = _conjugacy_labels(left_mult, _right_mult(left_mult))
    n, order = rs.n, simple_images.shape[0]
    simple_images.setflags(write=False)

    # Reconstruct matrices from the images of the simple roots.
    A_inv = np.linalg.inv(rs.simple_roots)            # rows alpha_i
    # mats[k] = images[k].T @ A_inv.T  ==  (A_inv @ images[k]).T, where the
    # rows of images[k] = all_roots[simple_images[k]] are the images
    mats = np.transpose(rs.all_roots[simple_images], (0, 2, 1)) @ A_inv.T

    ortho_err = _orthogonality_error(mats)
    if ortho_err > ORTHOGONALITY_TOL:
        raise NumericalError(
            f"reconstructed matrices not orthogonal (err {ortho_err:.2e})")
    mats.setflags(write=False)

    # dim ker(1 - w) is a class function: one SVD per conjugacy class,
    # counting singular values below eps_rank, copied to the rest of the
    # class
    reps = np.flatnonzero(labels == np.arange(order))
    sv = np.linalg.svd(np.eye(n) - mats[reps], compute_uv=False)
    fixed = np.zeros(order, dtype=np.int64)
    fixed[reps] = (sv < rs.tol.eps_rank).sum(axis=1)
    fixed = fixed[labels]
    counts = tuple(int(c) for c in np.bincount(fixed, minlength=n + 1))

    return Group(
        root_system=rs,
        order=order,
        counts_by_fixed_dim=counts,
        fixed_dims=fixed,
        matrix_stack=mats,
        simple_images=simple_images,
        left_mult=left_mult,
    )


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


def _image_keys(rs: RootSystem, images: np.ndarray) -> np.ndarray:
    """int64 key of each (..., n) row of simple-root images, read as
    base-num_roots digits; an element is determined by its images."""
    digits = rs.num_roots ** np.arange(rs.n, dtype=np.int64)
    return images.astype(np.int64) @ digits


def _row_bytes(rows: np.ndarray) -> np.ndarray:
    """Each row of root indices as one big-endian uint16 byte string, so
    that the strings sort like the rows (root lists stay far below 2**16
    entries)."""
    return rows.astype(">u2").view(np.dtype((np.void, 2 * rows.shape[1])))[:, 0]


def _element_index(rs: RootSystem, simple_images: np.ndarray):
    """Function mapping tables of simple-root images (..., n) to the indices
    of the elements with those images, by one sort of the elements' keys.
    Raises InvalidArgumentError on duplicate elements, and the function
    raises it on images of no element."""
    keys = _image_keys(rs, simple_images)
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    if (sorted_keys[1:] == sorted_keys[:-1]).any():
        raise InvalidArgumentError("duplicate elements in element list")

    def find(images: np.ndarray) -> np.ndarray:
        wanted = _image_keys(rs, images)
        # sorted queries make the binary searches cache-friendly
        order = np.argsort(wanted, axis=None)
        queries = wanted.ravel()[order]
        pos = np.minimum(np.searchsorted(sorted_keys, queries), len(keys) - 1)
        if (sorted_keys[pos] != queries).any():
            raise InvalidArgumentError(
                "element list is not closed under the generators")
        found = np.empty_like(order)
        found[order] = by_key[pos]
        return found.reshape(wanted.shape)

    return find


def _right_mult(left_mult: np.ndarray) -> np.ndarray:
    """(order, n) table of the index of w s_j, from ``left_mult`` alone by
    one breadth-first pass from the identity (index 0).

    Row 0 holds the s_j.  An element w = s_i u first reached from u, one
    layer earlier, has w s_j = s_i (u s_j): entry u s_j of row i of
    ``left_mult``.  Which of w's parents is taken does not matter.  Raises
    InvalidArgumentError when an element is never reached, that is, when
    the elements are not generated by the simple reflections."""
    n, order = left_mult.shape
    right = np.empty((order, n), dtype=left_mult.dtype)
    right[0] = left_mult[:, 0]
    # slot[w]: the position among its layer's children that reached w
    slot = np.full(order, -1, dtype=np.intp)
    slot[0] = 0
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        # children s_i u of the frontier elements u, generator-major
        children = left_mult[:, frontier].ravel()
        fresh = np.flatnonzero(slot[children] < 0)
        w = children[fresh]
        slot[w] = fresh
        first = slot[w] == fresh        # one of the positions of each w
        w, fresh = w[first], fresh[first]
        i, u = np.divmod(fresh, frontier.size)
        right[w] = np.take(left_mult, (i * order)[:, None] + right[frontier[u]])
        frontier = w
    if (slot < 0).any():
        raise InvalidArgumentError("element list is not generated by the "
                                   "simple reflections")
    return right


def _conjugacy_labels(left_mult: np.ndarray, right_mult: np.ndarray) -> np.ndarray:
    """Index of the first element of each element's conjugacy class: the
    classes are the components of w ~ s_j w s_j, labelled by propagating
    the least index along those edges."""
    n, order = left_mult.shape
    # s_j w s_j, entry (j, w): entry w s_j of row j of left_mult
    conj = np.take(left_mult, right_mult.T + (np.arange(n) * order)[:, None])
    labels = np.arange(order)
    while True:
        new = np.minimum.reduce([labels, *labels[conj]])
        new = new[new]
        if (new == labels).all():
            return labels
        labels = new


def _orthogonality_error(mats: np.ndarray) -> float:
    """Largest entry of |w^T w - 1| over a (order, n, n) stack, computed in
    one temporary: the product, less the identity and made absolute in
    place."""
    gram = np.swapaxes(mats, 1, 2) @ mats
    gram -= np.eye(mats.shape[1])
    return float(np.abs(gram, out=gram).max())


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


def parabolic_subgroup(g: Group, I) -> np.ndarray:
    """The elements of the subgroup generated by the simple reflections
    {s_j : j not in I}, as a read-only ascending index array.

    This is exactly the pointwise stabilizer of span{omega_i : i in I}
    (Steinberg fixator property); the equality is asserted.
    """
    I = _face_subset(g, I)
    gens = [j for j in range(g.n) if j not in I]
    indices = np.flatnonzero(_closure(g.left_mult[gens]))

    # Steinberg: generated subgroup == pointwise fixator of the face span.
    fixator = np.flatnonzero(g.fixes_weight[:, sorted(I)].all(axis=1))
    if not np.array_equal(fixator, indices):
        raise NumericalError(
            "parabolic subgroup does not match the pointwise fixator")
    indices.setflags(write=False)
    return indices


def regular_count(g: Group, elements: np.ndarray, ambient_subspace_dim: int) -> int:
    """Number of the elements of ``g`` at indices ``elements`` that act
    fixed-point-freely on a subspace of the stated dimension (their global
    fixed space is exactly the orthogonal complement)."""
    target = g.n - ambient_subspace_dim
    return int(np.count_nonzero(g.fixed_dims[elements] == target))


def face_carriers(g: Group, I) -> dict[tuple[int, ...], np.ndarray]:
    """The elements w with w . span(F_J) = span(F_I), as read-only ascending
    index arrays by face type J (|J| = |I|, in lexicographic order), for
    every J that has one.

    w carries span(F_J) onto span(F_I) when it sends the simple roots
    outside J, which span span(F_J)-perp, into span(F_I)-perp (equal
    dimensions, so into is onto).  The images are linearly independent, so
    at most n - |I| of them fit there: w carries F_J exactly when the simple
    roots it sends there are those outside J."""
    I = _face_subset(g, I)
    targets = g.root_system.orthogonal_roots(I)
    # bit j of masks[w]: w alpha_j is a target root
    masks = np.take(targets, g.simple_images) @ (1 << np.arange(g.n))
    carriers = {}
    for J in itertools.combinations(range(g.n), len(I)):
        ws = np.flatnonzero(masks == sum(1 << j for j in range(g.n) if j not in J))
        if ws.size:
            ws.setflags(write=False)
            carriers[J] = ws
    return carriers


def normalizer_of_span(g: Group, I) -> np.ndarray:
    """The elements mapping span{omega_i : i in I} onto itself, as a
    read-only ascending index array."""
    I = tuple(sorted(_face_subset(g, I)))
    return face_carriers(g, I)[I]


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
    # subset is every face type some element carries onto it.
    unplaced = list(itertools.combinations(range(n), k))
    classes = []
    while unplaced:
        cls = list(face_carriers(g, unplaced[0]))
        classes.append(cls)
        unplaced = [J for J in unplaced if J not in cls]
    return classes
