"""Exact enumeration of the reflection group and its subgroup machinery.

An element w is identified by its simple-root images, the root indices of
w alpha_1, ..., w alpha_n, which is exact even though the matrices are
floating point, and keyed by them read as base-num_roots digits.
Enumeration is a breadth-first closure of the simple reflections on images
and keys alone, one whole word-length layer per array pass, with each layer
in key order (lexicographic on w alpha_n, ..., w alpha_1), so element
indices are stable across runs.

A Group holds its elements as stacked arrays (simple-root images, matrices,
fixed-space dimensions) and the table ``left_mult`` of the index of s_j w;
enumeration and a cache reload both build it, with the same checks, by
``group_from_simple_images``.  The keys of the s_j w are summed digit by
digit from per-digit tables of the simple reflections.  s_j permutes W, so
each row of them, sorted, must equal the elements' sorted keys: that
equality is the closure check, and the two sorts give ``left_mult`` with no
key search.  The matrices are rebuilt from the images in chunks of
elements, and each chunk's orthogonality is checked row by row of w^T w
over its contiguous (n, n, chunk) columns.  dim ker(1 - w) is a class
function, so it is computed by one SVD per conjugacy class.  The classes
come from ``left_mult`` alone: one breadth-first pass from the identity,
which is also the check that the simple reflections generate the elements,
gives the word-length layers, and each layer takes its w s_j = s_i (u s_j),
for w = s_i u one layer above u, from the layer below in one gather;
s_j w s_j is entry w s_j of row j of ``left_mult``.  A subgroup is a
read-only ascending array of element indices.  Parabolic subgroups are the
same breadth-first pass over some rows of ``left_mult``, checked against
one per-group table of the elements fixing each fundamental weight.  Face
spans are matched, by ``face_carriers`` alone, as root subsets on the
images: w carries span(F_J) onto span(F_I) when it sends the simple roots
outside J into span(F_I)-perp.  One such table per face subset I answers
every face type J at once, and the normalizer of span(F_I) is its entry
J = I.
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
# simple-root images, each entry summed over one pair of the contiguous
# columns of a chunk of the stack.  Over every supported group it stays
# below 1.5e-13, while a wrong image moves an entry by order 1, so the
# check does not depend on the value.
ORTHOGONALITY_TOL = 1e-9

# Elements per chunk of the matrix reconstruction: its temporaries are two
# (chunk, n, n) arrays, 0.25 MiB each for n = 4, beside the stack itself.
# H4's set-up then peaks at 2.89 MiB (tracemalloc), and takes 1.9-2.0 ms
# to rebuild and check its matrices, against 1.7-1.8 ms and 3.25 MiB in
# chunks of 4 096 and 2.0-2.3 ms and 2.75 MiB in chunks of 1 024.
_STACK_CHUNK = 1 << 11


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
    layer at a time, on the elements' int64 keys.

    The keys of the s_j w for the whole last layer come from its simple-root
    images alone.  In a Coxeter group l(s_j w) = l(w) +- 1, so those that
    are not in the layer below make up the next layer, sorted and without
    repeats; it is decoded back to images, and each layer is in key order.
    Raises GroupTooLargeError when more than ``cap`` elements appear.
    """
    digits = rs.num_roots ** np.arange(rs.n, dtype=np.int64)
    layers = [rs.simple_ids[None].astype(np.int32)]
    below, keys = np.empty(0, dtype=np.int64), _image_keys(rs, layers[0])
    size = 1
    while True:
        children = np.sort(_reflected_keys(rs, layers[-1]), axis=None)
        children = children[np.diff(children, prepend=-1) != 0]
        below, keys = keys, children[np.isin(children, below, assume_unique=True,
                                             invert=True, kind="sort")]
        if not len(keys):
            return group_from_simple_images(rs, np.concatenate(layers))
        size += len(keys)
        if size > cap:
            raise GroupTooLargeError(f"group exceeds element cap {cap}")
        layers.append((keys[:, None] // digits % rs.num_roots).astype(np.int32))


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
    left_mult = _left_mult(rs, simple_images)
    # the breadth-first pass that finds each w s_j also checks that the
    # simple reflections generate the elements
    labels = _conjugacy_labels(left_mult, _right_mult(left_mult))
    n, order = rs.n, simple_images.shape[0]
    simple_images.setflags(write=False)
    mats = _matrix_stack(rs, simple_images)
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


def _word_layers(table: np.ndarray) -> list[np.ndarray]:
    """The elements reached from the identity (index 0) through the
    generators whose rows of ``left_mult`` make up ``table``, as one
    ascending index array per word length, shortest first."""
    order = table.shape[1]
    unreached = np.ones(order, dtype=bool)
    unreached[0] = False
    layers = [np.zeros(1, dtype=np.intp)]
    while True:
        new = np.zeros(order, dtype=bool)
        new[table[:, layers[-1]]] = True
        new &= unreached
        layer = new.nonzero()[0]
        if not layer.size:
            return layers
        unreached ^= new
        layers.append(layer)


def _image_keys(rs: RootSystem, images: np.ndarray) -> np.ndarray:
    """int64 key of each (..., n) row of simple-root images, read as
    base-num_roots digits; an element is determined by its images."""
    digits = rs.num_roots ** np.arange(rs.n, dtype=np.int64)
    return images.astype(np.int64) @ digits


def _reflected_keys(rs: RootSystem, images: np.ndarray) -> np.ndarray:
    """(n, rows) keys of s_j w for every generator j and every row of
    simple-root images of a w, summed digit by digit: digit i of the key
    of s_j w is entry (w alpha_i) of a per-digit table of
    ``rs.simple_reflections``, so the (n, rows, n) images of the s_j w are
    never formed, only one (n, rows) gather of digits per generator."""
    n, num_roots = rs.n, rs.num_roots
    digits = num_roots ** np.arange(n, dtype=np.int64)
    # tables[j, i, r]: digit i of the key of an element sending alpha_i to
    # s_j(root r); entry i * num_roots + r of tables[j] flattened
    tables = rs.simple_reflections[:, None, :] * digits[:, None]
    at = np.ascontiguousarray(images.T) + (np.arange(n) * num_roots)[:, None]
    keys = np.empty((n, len(images)), dtype=np.int64)
    for j, key in enumerate(keys):
        np.add.reduce(np.take(tables[j], at), axis=0, out=key)
    return keys


def _left_mult(rs: RootSystem, simple_images: np.ndarray) -> np.ndarray:
    """(n, order) table of the index of s_j w, by one sort of the elements'
    keys and one sort of each row of the keys of the s_j w.

    s_j permutes W, so on a closed element list row j of the s_j w keys,
    sorted, equals the elements' sorted keys exactly; that equality is the
    closure check.  The element at position m of row j's sort is then the
    one at position m of the elements' sort.  Raises InvalidArgumentError
    on duplicate elements and on an element list that is not closed under
    the generators."""
    keys = _image_keys(rs, simple_images)
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    if (sorted_keys[1:] == sorted_keys[:-1]).any():
        raise InvalidArgumentError("duplicate elements in element list")
    reflected = _reflected_keys(rs, simple_images)
    at = np.argsort(reflected, axis=1)
    if (np.take_along_axis(reflected, at, axis=1) != sorted_keys).any():
        raise InvalidArgumentError(
            "element list is not closed under the generators")
    left_mult = np.empty_like(at)
    np.put_along_axis(left_mult, at, by_key[None], axis=1)
    return left_mult


def _right_mult(left_mult: np.ndarray) -> np.ndarray:
    """(order, n) table of the index of w s_j, from ``left_mult`` alone.

    Row 0 holds the s_j.  An element w = s_i u one word length above u has
    w s_j = s_i (u s_j): entry u s_j of row i of ``left_mult``.  So one
    breadth-first pass gives the word-length layers, one such i is picked
    for every w at once, and each layer then takes its rows from the layer
    below in one gather.  Which i is taken does not matter.  Raises
    InvalidArgumentError when an element is never reached, that is, when
    the elements are not generated by the simple reflections."""
    n, order = left_mult.shape
    layers = _word_layers(left_mult)
    sizes = [len(layer) for layer in layers]
    if sum(sizes) < order:
        raise InvalidArgumentError("element list is not generated by the "
                                   "simple reflections")
    depth = np.empty(order, dtype=np.intp)
    depth[np.concatenate(layers)] = np.repeat(np.arange(len(layers)), sizes)
    # a generator i with s_i w one layer down, as the offset of row i
    base = (depth[left_mult] < depth).argmax(axis=0) * order
    below = np.take(left_mult, base + np.arange(order))
    right = np.empty((order, n), dtype=left_mult.dtype)
    right[0] = left_mult[:, 0]
    for layer in layers[1:]:
        right[layer] = np.take(left_mult,
                               base[layer, None] + right[below[layer]])
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


def _matrix_stack(rs: RootSystem, simple_images: np.ndarray) -> np.ndarray:
    """(order, n, n) matrices of the elements, rebuilt from their
    simple-root images ``_STACK_CHUNK`` elements at a time.  Raises
    NumericalError when the largest entry of |w^T w - 1| over the stack
    exceeds ORTHOGONALITY_TOL."""
    A_inv = np.linalg.inv(rs.simple_roots)            # rows alpha_i
    mats = np.empty(simple_images.shape + (rs.n,))
    err = 0.0
    for a in range(0, len(mats), _STACK_CHUNK):
        chunk = mats[a:a + _STACK_CHUNK]
        # chunk[k] = images[k].T @ A_inv.T  ==  (A_inv @ images[k]).T, where
        # the rows of images[k] = all_roots[simple_images[k]] are the images
        np.matmul(np.transpose(rs.all_roots[simple_images[a:a + _STACK_CHUNK]],
                               (0, 2, 1)), A_inv.T, out=chunk)
        err = max(err, _orthogonality_error(chunk))
    if err > ORTHOGONALITY_TOL:
        raise NumericalError(
            f"reconstructed matrices not orthogonal (err {err:.2e})")
    return mats


def _orthogonality_error(mats: np.ndarray) -> float:
    """Largest entry of |w^T w - 1| over a (m, n, n) stack, row by row
    over its contiguous (n, n, m) columns: entries (b, c >= b) of every
    w^T w are one sum over a of column (a, b) times columns (a, c)."""
    cols = np.ascontiguousarray(mats.transpose(1, 2, 0))
    err = 0.0
    for b in range(len(cols)):
        entries = np.einsum("ak,ack->ck", cols[:, b], cols[:, b:])
        entries[0] -= 1.0
        err = max(err, float(np.abs(entries, out=entries).max()))
    return err


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
    indices = np.sort(np.concatenate(_word_layers(g.left_mult[gens])))

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
