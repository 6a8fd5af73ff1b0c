"""Simplicial cone algebra: chambers, faces, duals and quotients.

A simplicial cone is stored as its generator rows together with the dual
(facet-normal) basis inside its own span, so whether a point of the span
lies in the cone is read off the signs of its dual coordinates.  The zero
cone (no generators) is a valid cone of dimension 0.

A cone carries the tolerance policy it was built with (``tol``), and every
cone derived from it (dual, face, quotient, quotient dual) is built with
the same policy, so ``chamber(rs)`` and everything derived from it decide
ranks by ``rs.tol``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConeError, InvalidArgumentError, NumericalError
from .linalg import DEFAULT_TOL, Subspace, ToleranceConfig
from .roots import RootSystem

__all__ = ["SimplicialCone", "chamber", "dual", "face"]

# Largest distance, relative to the row's length, between a dual-basis row
# of the quotient cone C/F_I and the facet normal of C it equals by
# construction.
# Over every supported group and face subset the two agree to 3.4e-15,
# while a wrong or misordered row is off by order 1, so the check does not
# depend on the value.
DIRECTION_MATCH_TOL = 1e-8

# Largest inner product between a unit facet normal outside I and a unit
# basis vector of span(F_I).  Over every supported group and face subset
# it is at most 4.6e-16, while a facet normal not orthogonal to the face
# gives order 1, so the check does not depend on the value.
FACE_SPAN_TOL = 1e-9


@dataclass(frozen=True)
class SimplicialCone:
    """Cone on linearly independent generators (rows), with cached span and
    dual basis satisfying (g_i, d_j) = delta_ij, and the tolerance policy
    ``tol`` it was built with, which the cones derived from it inherit."""

    generators: np.ndarray   # (k, n)
    span: Subspace
    dual_basis: np.ndarray   # (k, n), rows lie in span
    tol: ToleranceConfig = field(default=DEFAULT_TOL, compare=False)

    @staticmethod
    def from_generators(gens, ambient_dim: int | None = None,
                        tol: ToleranceConfig = DEFAULT_TOL) -> "SimplicialCone":
        """The cone on the rows of ``gens``.  One SVD decides independence
        (smallest singular value above ``tol.eps_rank``) and gives the
        orthonormal span basis; a full-dimensional cone keeps the
        canonical basis, so its span coordinates are ambient."""
        G = np.atleast_2d(np.asarray(gens, dtype=float))
        if G.size == 0:
            if ambient_dim is None:
                raise InvalidArgumentError("zero cone needs an explicit ambient_dim")
            empty = np.zeros((0, ambient_dim))
            empty.setflags(write=False)
            return SimplicialCone(empty, Subspace.zero(ambient_dim), empty, tol)
        if not np.isfinite(G).all():
            raise InvalidArgumentError("generators have non-finite entries")
        k, n = G.shape
        _, s, vh = np.linalg.svd(G, full_matrices=False)
        if k > n or s[-1] <= tol.eps_rank:
            raise DegenerateConeError("generators are linearly dependent")
        span = Subspace.full(n) if k == n else Subspace.from_basis(vh)
        B = span.orthonormal_basis                    # (k, n)
        coords = G @ B.T                              # generator coords in span
        dual_coords = np.linalg.inv(coords).T         # (d_j, g_i) = delta_ij
        D = dual_coords @ B
        G = G.copy()
        G.setflags(write=False)
        D.setflags(write=False)
        return SimplicialCone(G, span, D, tol)

    @property
    def dim(self) -> int:
        return self.generators.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.generators.shape[1]


def chamber(rs: RootSystem) -> SimplicialCone:
    """The fundamental chamber: cone on the fundamental weights, with the
    root system's tolerances.

    Its facet normals (dual basis) are the simple roots.
    """
    return SimplicialCone.from_generators(rs.fundamental_weights, tol=rs.tol)


def dual(c: SimplicialCone) -> SimplicialCone:
    """Dual cone of a full-dimensional simplicial cone: the cone on its
    facet normals."""
    if c.dim != c.ambient_dim:
        raise InvalidArgumentError(
            "dual() supports full-dimensional cones only")
    return SimplicialCone.from_generators(c.dual_basis, tol=c.tol)


def _split(I, n: int) -> tuple[list[int], list[int]]:
    """The sorted subset I of 0..n-1 and the indices outside it."""
    I = sorted(int(i) for i in I)
    if I and (I[0] < 0 or I[-1] >= n or len(set(I)) != len(I)):
        raise InvalidArgumentError(f"I must be a subset of 0..{n - 1}")
    return I, [j for j in range(n) if j not in I]


def face(c: SimplicialCone, I) -> SimplicialCone:
    """Face of a full-dimensional cone spanned by the generators indexed by I.

    Asserts the face-span identity: span(F_I) is the intersection of the
    facet hyperplanes {x : (x, d_j) = 0} for j outside I.  Both have
    dimension |I|, so it is checked as the unit normals d_j, j outside I,
    being orthogonal to F_I's span basis.
    """
    n = c.ambient_dim
    I, rest = _split(I, n)
    f = SimplicialCone.from_generators(c.generators[I], ambient_dim=n, tol=c.tol)
    if I and rest:
        normals = c.dual_basis[rest]
        normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
        if np.abs(normals @ f.span.orthonormal_basis.T).max() > FACE_SPAN_TOL:
            raise NumericalError("face span does not match facet intersection")
    return f


def _quotient_from_face(c: SimplicialCone, I,
                        f: SimplicialCone) -> SimplicialCone:
    """The quotient cone C/F_I: the cone on the generators outside I,
    projected orthogonally onto span(F_I)-perp.  ``f`` is the face
    face(c, I), built by the caller, so its span is not factored again."""
    n = c.ambient_dim
    _, rest = _split(I, n)
    if not rest:
        return SimplicialCone.from_generators([], ambient_dim=n, tol=c.tol)
    P = np.eye(n) - f.span.projector()
    return SimplicialCone.from_generators(c.generators[rest] @ P.T, tol=c.tol)


def _checked_quotient_dual(c: SimplicialCone, I,
                           q: SimplicialCone) -> SimplicialCone:
    """The quotient dual (C/F_I)*, the face of the dual cone orthogonal to
    F_I: the cone on the facet normals d_r indexed outside I.

    Asserts that it equals the dual of ``q``, the quotient cone C/F_I built
    by the caller, within q's span.  That dual is the cone on q.dual_basis,
    whose rows equal the d_r in order: d_r lies in span(F_I)-perp and
    (P g_s, d_r) = (g_s, d_r) = delta_sr for the projection P onto it."""
    n = c.ambient_dim
    _, rest = _split(I, n)
    qd = SimplicialCone.from_generators(c.dual_basis[rest], ambient_dim=n,
                                        tol=c.tol)
    if q.dim != qd.dim:
        raise NumericalError("quotient/quotient-dual dimension mismatch")
    if q.dim:
        D = qd.generators
        gap = np.linalg.norm(q.dual_basis - D, axis=1) / np.linalg.norm(D, axis=1)
        if gap.max() > DIRECTION_MATCH_TOL:
            raise NumericalError(
                "quotient dual disagrees with dual-of-quotient within the span")
    return qd
