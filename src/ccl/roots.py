"""Root systems for the supported finite reflection groups.

Every family goes through one uniform construction: build the Coxeter
matrix, form the Gram matrix G_ij = -cos(pi / m_ij), take simple roots as
the rows of its Cholesky factor (so the essential representation has
ambient dimension equal to the rank), and close the simple roots under the
simple reflections to obtain the full unit root set.  Each simple
reflection is also held as the permutation it makes of the root list;
group enumeration and cache reload apply no other reflection.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidArgumentError,
    NonFiniteSystemError,
    NumericalError,
    UnsupportedGroupError,
)
from .linalg import DEFAULT_TOL, ToleranceConfig

__all__ = ["GroupType", "RootSystem", "build", "generate_roots",
           "SUPPORTED_TYPES"]

_CLOSURE_CAP = 10_000

# Largest number of float64 entries (images x vectors) in one product of
# inner products in the root closure: 192 KiB.  Every layer of every
# supported group fits in one product (2 712 entries at most, for H4), and
# the closure's temporaries peak at 50 KiB over them; a pool of 10 000
# vectors, near _CLOSURE_CAP, still compares two images per product.
_CLOSURE_ENTRIES = 24_576

# Threshold on |c| that tells a zero coefficient c = (beta, omega_i) of a
# root beta on a unit simple root alpha_i from a nonzero one.  Over every
# supported group the nonzero coefficients have |c| >= 1 - 4e-16 and the
# zero ones |c| <= 6e-16, so any threshold between decides the same.
COEFFICIENT_ZERO_TOL = 0.5

# Largest | |alpha| - 1 | accepted for a simple root.  The Cholesky rows
# ccl builds have unit length to 1.1e-16 over every supported group, so
# the check only rejects input that was not meant to be unit length.
UNIT_LENGTH_TOL = 1e-9

# Largest entry of |L L^T - G| accepted from the Cholesky factor L of the
# Gram matrix G.  Over every supported group it is at most 1.1e-16, so the
# check only catches a factorization that failed outright.
GRAM_CHECK_TOL = 1e-9

# Most negative (omega_i, alpha_j) accepted for fundamental weights in the
# closed chamber.  The products are delta_ij to 2.3e-16 over every
# supported group, the smallest is -1.2e-16, and a weight outside the
# chamber gives a product of order -1.
CHAMBER_SIGN_TOL = 1e-9

# Decimals of the root coordinates in the root sort key, so that float
# noise cannot reorder roots.  Over every supported group, coordinates that
# are equal differ by at most 1.3e-14 and distinct ones by at least 0.034,
# and no coordinate lies within 1.1e-11 of a rounding boundary, so rounding
# neither splits equal coordinates nor merges distinct ones.
ROOT_SORT_DECIMALS = 9


@dataclass(frozen=True)
class GroupType:
    """Identifier for one irreducible reflection group.

    family is one of A, B, D, I2, H3, F4, H4; ``m`` is the dihedral edge
    label and is only meaningful for I2.
    """

    family: str
    rank: int
    m: int | None = None

    @staticmethod
    def parse(spec: str) -> "GroupType":
        """Parse a spec string like ``A2``, ``B4``, ``I2(7)``, ``h3``."""
        s = spec.strip().upper()
        mobj = re.fullmatch(r"I2\((\d+)\)", s)
        if mobj:
            return GroupType("I2", 2, int(mobj.group(1))).validated()
        mobj = re.fullmatch(r"([A-Z])(\d+)", s)
        if not mobj:
            raise UnsupportedGroupError(f"cannot parse group spec {spec!r}")
        fam, rank = mobj.group(1), int(mobj.group(2))
        if fam == "C":
            raise UnsupportedGroupError(
                f"C{rank} is the same reflection group as B{rank}; use B{rank}")
        if fam in ("H", "F"):
            return GroupType(fam + str(rank), rank).validated()
        return GroupType(fam, rank).validated()

    def validated(self) -> "GroupType":
        f, r = self.family, self.rank
        if f == "A" and 1 <= r <= 5:
            return self
        if f == "B" and 2 <= r <= 4:
            return self
        if f == "D":
            if r in (2, 3):
                raise UnsupportedGroupError(
                    f"D{r} is reducible or an alias of A{r}; not supported")
            if r == 4:
                return self
        if f == "I2":
            if self.m is None or self.m < 3:
                raise UnsupportedGroupError("I2(m) requires m >= 3")
            if self.m > 12:
                raise UnsupportedGroupError("I2(m) supported for 3 <= m <= 12")
            return self
        if f in ("H3", "F4", "H4") and r == int(f[1]):
            return self
        raise UnsupportedGroupError(f"unsupported group type {self}")

    def __str__(self) -> str:
        if self.family == "I2":
            return f"I2({self.m})"
        if self.family in ("H3", "F4", "H4"):
            return self.family
        return f"{self.family}{self.rank}"


def _supported_types() -> tuple[GroupType, ...]:
    types = [GroupType("A", r) for r in range(1, 6)]
    types += [GroupType("B", r) for r in (2, 3, 4)]
    types += [GroupType("D", 4)]
    types += [GroupType("I2", 2, m) for m in range(3, 13)]
    types += [GroupType("H3", 3), GroupType("F4", 4), GroupType("H4", 4)]
    return tuple(types)


SUPPORTED_TYPES = _supported_types()

# Exponents m_1..m_n; `ccl counts` checks them against the enumerated group
# by the Solomon identity (groups.solomon_check).  They also give the root
# count |Phi| = 2 (m_1 + ... + m_n), which build checks, and the group
# order |W| = (m_1 + 1) ... (m_n + 1) (Humphreys, Reflection Groups and
# Coxeter Groups, 3.9).
_EXPONENTS = {
    "A": lambda r, m: tuple(range(1, r + 1)),
    "B": lambda r, m: tuple(range(1, 2 * r, 2)),
    "D": lambda r, m: tuple(list(range(1, 2 * r - 2, 2)) + [r - 1]),
    "I2": lambda r, m: (1, m - 1),
    "H3": lambda r, m: (1, 5, 9),
    "F4": lambda r, m: (1, 5, 7, 11),
    "H4": lambda r, m: (1, 11, 19, 29),
}


def coxeter_matrix(t: GroupType) -> np.ndarray:
    """Coxeter matrix with the fixed node labeling used everywhere in ccl.

    A_n / B_n / H3 / F4 / H4 are paths with edge labels
    (3,...,3), (3,...,3,4), (5,3), (3,4,3), (5,3,3); D4 is the star with
    node 1 central.
    """
    r = t.rank
    M = 2 * np.ones((r, r), dtype=int)
    np.fill_diagonal(M, 1)

    def edge(i, j, label):
        M[i, j] = M[j, i] = label

    if t.family in ("A", "B"):
        for i in range(r - 1):
            edge(i, i + 1, 3)
        if t.family == "B":
            edge(r - 2, r - 1, 4)
    elif t.family == "D":
        edge(0, 1, 3)
        edge(1, 2, 3)
        edge(1, 3, 3)
    elif t.family == "I2":
        edge(0, 1, t.m)
    elif t.family == "H3":
        edge(0, 1, 5)
        edge(1, 2, 3)
    elif t.family == "F4":
        edge(0, 1, 3)
        edge(1, 2, 4)
        edge(2, 3, 3)
    elif t.family == "H4":
        edge(0, 1, 5)
        edge(1, 2, 3)
        edge(2, 3, 3)
    return M


def gram_matrix(t: GroupType) -> np.ndarray:
    M = coxeter_matrix(t)
    G = -np.cos(np.pi / M)
    np.fill_diagonal(G, 1.0)
    return G


@dataclass(frozen=True)
class RootSystem:
    """Simple roots, full unit root set, fundamental weights and the root
    permutations of the simple reflections of one group.

    All arrays are read-only; rows are vectors.  Weights are normalized so
    that (alpha_j, omega_i) = delta_ij.
    """

    group_type: GroupType
    n: int
    simple_roots: np.ndarray        # (n, n)
    all_roots: np.ndarray           # (N, n), unit rows, deduplicated, sorted
    fundamental_weights: np.ndarray  # (n, n)
    exponents: tuple[int, ...]
    tol: ToleranceConfig = field(default=DEFAULT_TOL, compare=False)

    @property
    def num_roots(self) -> int:
        return self.all_roots.shape[0]

    @property
    def num_positive_roots(self) -> int:
        return self.all_roots.shape[0] // 2

    @functools.cached_property
    def simple_ids(self) -> np.ndarray:
        """Index of each simple root in the root list."""
        return self._nearest_roots(self.simple_roots)

    @functools.cached_property
    def simple_reflections(self) -> np.ndarray:
        """(n, num_roots) read-only int32 table: entry (j, c) is the index
        of s_j(c), s_j the reflection in simple root j.

        Every image is matched to a root within eps_root_match, and each row
        must permute the roots.  That suffices for every reflection: W is
        generated by the s_j, so the root set is W-stable, and the
        reflection in a root w(alpha_j) is w s_j w^-1."""
        R, N = self.all_roots, self.num_roots
        table = self._nearest_roots(
            (R[None] - 2.0 * (self.simple_roots @ R.T)[:, :, None]
             * self.simple_roots[:, None]).reshape(-1, self.n))
        table = table.reshape(self.n, N).astype(np.int32)
        bad = (np.sort(table, axis=1) != np.arange(N)).any(axis=1)
        if bad.any():
            raise NonFiniteSystemError(
                f"reflection in simple root {bad.argmax()} does not permute "
                "the root set")
        table.setflags(write=False)
        return table

    def orthogonal_roots(self, I) -> np.ndarray:
        """Mask of the roots orthogonal to span{omega_i : i in I}, read as
        the roots with coefficient 0 on alpha_i for every i in I."""
        coefficients = self.all_roots @ self.fundamental_weights[list(I)].T
        return (np.abs(coefficients) < COEFFICIENT_ZERO_TOL).all(axis=1)

    def _nearest_roots(self, vectors: np.ndarray) -> np.ndarray:
        """Index of the root nearest to each row; error if any row has no
        root within eps_root_match.  |v - r|^2 = |v|^2 + 1 - 2 (v, r) for a
        unit root r, so one product of inner products finds the nearest
        root, and the distance to it is then taken directly."""
        nearest = (vectors @ self.all_roots.T).argmax(axis=1)
        d = np.linalg.norm(vectors - self.all_roots[nearest], axis=1)
        if (d > self.tol.eps_root_match).any():
            raise InvalidArgumentError("vector does not match any root")
        return nearest


def generate_roots(simple, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Close the simple roots under the simple reflections, one layer of
    reflected images at a time.

    Returns the full unit root set, deduplicated with eps_root_match and
    sorted lexicographically on coordinates rounded to
    ROOT_SORT_DECIMALS decimals.
    """
    S = np.asarray(simple, dtype=float)
    norms = np.linalg.norm(S, axis=1)
    if np.abs(norms - 1.0).max() > UNIT_LENGTH_TOL:
        raise InvalidArgumentError("simple roots must be unit length")
    eigs = np.linalg.eigvalsh(S @ S.T)
    if eigs.min() <= tol.eps_rank:
        raise InvalidArgumentError("Gram matrix of simple roots is not positive definite")

    n = S.shape[1]
    stack, frontier = S.copy(), S
    while len(frontier):
        # every frontier root reflected by every generator, rows in
        # (root, generator) visiting order
        images = (frontier[:, None, :]
                  - 2.0 * (frontier @ S.T)[:, :, None] * S[None]).reshape(-1, n)
        # an image is new when the first vector within eps_root_match of it,
        # among the roots so far and the layer's images, is itself
        new = _first_within(np.vstack([stack, images]), len(stack),
                            tol.eps_root_match)
        if len(stack) + np.count_nonzero(new) > _CLOSURE_CAP:
            raise NonFiniteSystemError(
                f"root closure exceeded {_CLOSURE_CAP} vectors")
        frontier = images[new]
        stack = np.vstack([stack, frontier])

    out = stack[np.lexsort(np.round(stack, ROOT_SORT_DECIMALS).T[::-1])]
    out.setflags(write=False)
    return out


def _first_within(pool: np.ndarray, start: int, eps: float) -> np.ndarray:
    """Mask of the rows of ``pool`` from ``start`` on whose first row within
    ``eps`` is the row itself.

    |v - r|^2 = |v|^2 + |r|^2 - 2 (v, r), one product of inner products per
    chunk of at most _CLOSURE_ENTRIES entries, is off by a few roundings of
    |v|^2 + |r|^2.  It decides every pair but those within that rounding
    of eps^2; these, which for an eps below about 1e-7 include v itself,
    are decided by the norm of v - r."""
    sq = np.einsum("ij,ij->i", pool, pool)
    rounding = 4 * (pool.shape[1] + 4) * np.finfo(float).eps
    rows = max(1, _CLOSURE_ENTRIES // len(pool))
    first = np.empty(len(pool) - start, dtype=np.intp)
    for a in range(start, len(pool), rows):
        b = min(a + rows, len(pool))
        d2 = pool[a:b] @ pool[:b].T
        d2 *= -2.0
        d2 += sq[a:b, None]
        d2 += sq[:b] - eps ** 2
        margin = rounding * (2.0 * sq[:b].max() + eps ** 2)
        within = d2 < -margin
        v, r = np.nonzero(np.abs(d2, out=d2) <= margin)
        if len(v):
            within[v, r] = np.linalg.norm(pool[a + v] - pool[r], axis=1) <= eps
        first[a - start:b - start] = within.argmax(axis=1)
    return first == np.arange(start, len(pool))


def build(t: GroupType, tol: ToleranceConfig = DEFAULT_TOL) -> RootSystem:
    """Construct the root system for a supported group type."""
    t = t.validated()

    G = gram_matrix(t)
    L = np.linalg.cholesky(G)
    simple = L  # rows are unit simple roots realizing the Gram matrix

    if np.abs(simple @ simple.T - G).max() > GRAM_CHECK_TOL:
        raise NumericalError("Cholesky construction failed the Gram check")

    exponents = _EXPONENTS[t.family](t.rank, t.m)
    all_roots = generate_roots(simple, tol)
    expected = 2 * sum(exponents)
    if all_roots.shape[0] != expected:
        raise NonFiniteSystemError(
            f"{t}: generated {all_roots.shape[0]} roots, expected {expected}")

    # (alpha_j, omega_i) = delta_ij: the weights are the rows of the inverse
    # transpose, and they must lie in the closed fundamental chamber
    weights = np.linalg.inv(simple).T
    weights.setflags(write=False)
    prods = weights @ simple.T  # (i, j) -> (omega_i, alpha_j)
    if prods.min() < -CHAMBER_SIGN_TOL:
        raise NumericalError("fundamental weights fell outside the chamber")

    simple = simple.copy()
    simple.setflags(write=False)
    rs = RootSystem(
        group_type=t,
        n=t.rank,
        simple_roots=simple,
        all_roots=all_roots,
        fundamental_weights=weights,
        exponents=exponents,
        tol=tol,
    )
    rs.simple_reflections   # each simple reflection permutes the roots
    return rs

