"""Simplicial cone algebra: chambers, faces, duals and quotients.

A simplicial cone is stored as its generator rows together with the dual
(facet-normal) basis inside its own span, so whether a point of the span
lies in the cone is read off the signs of its dual coordinates.  The zero
cone (no generators) is a valid cone of dimension 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConeError, InvalidArgumentError, NumericalError
from .linalg import DEFAULT_TOL, Subspace, ToleranceConfig
from .roots import RootSystem

__all__ = ["SimplicialCone", "chamber", "dual", "face", "quotient",
           "quotient_dual"]

# Largest distance between matched unit directions at which quotient_dual
# still agrees with the dual of the quotient.  Over every supported group and
# face subset the two agree to 4e-15, while a real disagreement moves a unit
# direction by order 1, so the check does not depend on the value.
DIRECTION_MATCH_TOL = 1e-8

# Largest entry-wise difference between the projector onto span(F_I) and the
# projector onto the intersection of the facet hyperplanes outside I.  Over
# every supported group and face subset the two agree to 1.2e-15, while a
# wrong face span moves an entry by order 1, so the check does not depend
# on the value.
FACE_SPAN_TOL = 1e-9


@dataclass(frozen=True)
class SimplicialCone:
    """Cone on linearly independent generators (rows), with cached span and
    dual basis satisfying (g_i, d_j) = delta_ij."""

    generators: np.ndarray   # (k, n)
    span: Subspace
    dual_basis: np.ndarray   # (k, n), rows lie in span

    @staticmethod
    def from_generators(gens, ambient_dim: int | None = None,
                        tol: ToleranceConfig = DEFAULT_TOL) -> "SimplicialCone":
        G = np.atleast_2d(np.asarray(gens, dtype=float))
        if G.size == 0:
            if ambient_dim is None:
                raise InvalidArgumentError("zero cone needs an explicit ambient_dim")
            G = np.zeros((0, ambient_dim))
            empty = np.zeros((0, ambient_dim))
            empty.setflags(write=False)
            return SimplicialCone(empty, Subspace.zero(ambient_dim), empty)
        if not np.isfinite(G).all():
            raise InvalidArgumentError("generators have non-finite entries")
        k, n = G.shape
        s = np.linalg.svd(G, compute_uv=False)
        if k > n or s[-1] <= tol.eps_rank:
            raise DegenerateConeError("generators are linearly dependent")
        span = Subspace.from_spanning(G, ambient_dim=n, tol=tol)
        B = span.orthonormal_basis                    # (k, n)
        coords = G @ B.T                              # generator coords in span
        dual_coords = np.linalg.inv(coords).T         # (d_j, g_i) = delta_ij
        D = dual_coords @ B
        G = G.copy()
        G.setflags(write=False)
        D.setflags(write=False)
        return SimplicialCone(G, span, D)

    @property
    def dim(self) -> int:
        return self.generators.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.generators.shape[1]


def chamber(rs: RootSystem) -> SimplicialCone:
    """The fundamental chamber: cone on the fundamental weights.

    Its facet normals (dual basis) are the simple roots.
    """
    return SimplicialCone.from_generators(rs.fundamental_weights, tol=rs.tol)


def dual(c: SimplicialCone, tol: ToleranceConfig = DEFAULT_TOL) -> SimplicialCone:
    """Dual cone of a full-dimensional simplicial cone: the cone on its
    facet normals."""
    if c.dim != c.ambient_dim:
        raise InvalidArgumentError(
            "dual() supports full-dimensional cones only")
    return SimplicialCone.from_generators(c.dual_basis, tol=tol)


def _subset(I, n: int) -> list[int]:
    I = sorted(int(i) for i in I)
    if I and (I[0] < 0 or I[-1] >= n or len(set(I)) != len(I)):
        raise InvalidArgumentError(f"I must be a subset of 0..{n - 1}")
    return I


def face(c: SimplicialCone, I, tol: ToleranceConfig = DEFAULT_TOL) -> SimplicialCone:
    """Face of a full-dimensional cone spanned by the generators indexed by I.

    Asserts the face-span identity: span(F_I) is the intersection of the
    facet hyperplanes {x : (x, d_j) = 0} for j outside I.
    """
    n = c.ambient_dim
    I = _subset(I, n)
    f = SimplicialCone.from_generators(c.generators[I], ambient_dim=n, tol=tol)
    rest = [j for j in range(n) if j not in I]
    normals = Subspace.from_spanning(c.dual_basis[rest], ambient_dim=n, tol=tol)
    if np.abs(f.span.projector() - normals.complement().projector()).max() > FACE_SPAN_TOL:
        raise NumericalError("face span does not match facet intersection")
    return f


def quotient(c: SimplicialCone, I, tol: ToleranceConfig = DEFAULT_TOL) -> SimplicialCone:
    """Orthogonal projection of the cone onto the complement of a face span:
    the cone on the projected remaining generators."""
    n = c.ambient_dim
    I = _subset(I, n)
    rest = [j for j in range(n) if j not in I]
    if not rest:
        return SimplicialCone.from_generators([], ambient_dim=n, tol=tol)
    fspan = Subspace.from_spanning(c.generators[I], ambient_dim=n, tol=tol)
    P = np.eye(n) - fspan.projector()
    return SimplicialCone.from_generators(c.generators[rest] @ P.T, tol=tol)


def quotient_dual(c: SimplicialCone, I,
                  tol: ToleranceConfig = DEFAULT_TOL) -> SimplicialCone:
    """The face of the dual cone orthogonal to F_I: cone on the facet
    normals indexed outside I.

    Asserts that this equals the dual of quotient(c, I) computed inside
    span(F_I)-perp.
    """
    return _checked_quotient_dual(c, I, quotient(c, I, tol), tol)


def _checked_quotient_dual(c: SimplicialCone, I, q: SimplicialCone,
                           tol: ToleranceConfig) -> SimplicialCone:
    """quotient_dual(c, I), checked against ``q``, the cone quotient(c, I)
    built by the caller."""
    n = c.ambient_dim
    I = _subset(I, n)
    rest = [j for j in range(n) if j not in I]
    qd = SimplicialCone.from_generators(c.dual_basis[rest], ambient_dim=n, tol=tol)
    if q.dim != qd.dim:
        raise NumericalError("quotient/quotient-dual dimension mismatch")
    if q.dim:
        # dual of the quotient within its span is the cone on q.dual_basis
        if _direction_mismatch(q.dual_basis, qd.generators) > DIRECTION_MATCH_TOL:
            raise NumericalError(
                "quotient dual disagrees with dual-of-quotient within the span")
    return qd


def _direction_mismatch(A: np.ndarray, B: np.ndarray) -> float:
    """Greedy unit-direction matching distance between two generator sets."""
    An = A / np.linalg.norm(A, axis=1, keepdims=True)
    Bn = B / np.linalg.norm(B, axis=1, keepdims=True)
    worst = 0.0
    used: list[int] = []
    for a in An:
        d = np.linalg.norm(Bn - a, axis=1)
        if used:
            d[used] = np.inf
        i = int(np.argmin(d))
        used.append(i)
        worst = max(worst, float(d[i]))
    return worst

