"""Simplicial cone algebra: chambers, faces and duals.

A simplicial cone is stored as its generator rows, their Gram matrix and
its facet normals, the dual basis inside its own span.  A cone's measure
depends only on the Gram matrix, and whether a point of the span lies in
the cone is read off the signs of its facet coordinates.  The zero cone (no
generators) is a valid cone of dimension 0.

A cone carries the tolerance policy it was built with (``tol``), and every
cone derived from it (dual, face) is built with the same policy, so
``chamber(rs)`` and everything derived from it decide ranks by ``rs.tol``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConeError, InvalidArgumentError
from .linalg import DEFAULT_TOL, ToleranceConfig
from .roots import RootSystem

__all__ = ["SimplicialCone", "chamber", "dual", "face"]


@dataclass(frozen=True)
class SimplicialCone:
    """Cone on linearly independent generators (rows), with their Gram
    matrix and the dual basis satisfying (g_i, d_j) = delta_ij, and the
    tolerance policy ``tol`` it was built with, which the cones derived
    from it inherit."""

    generators: np.ndarray   # (k, n)
    gram: np.ndarray         # (k, k), generators @ generators.T
    dual_basis: np.ndarray   # (k, n), rows lie in the generators' span
    tol: ToleranceConfig = field(default=DEFAULT_TOL, compare=False)

    @staticmethod
    def from_generators(gens, ambient_dim: int | None = None,
                        tol: ToleranceConfig = DEFAULT_TOL) -> "SimplicialCone":
        """The cone on the rows of ``gens``.  The rows are independent when
        the smallest eigenvalue of their Gram matrix is above
        ``tol.eps_rank ** 2``, that is, their smallest singular value above
        ``tol.eps_rank``.  The dual basis D is Gram^-1 G, from one k x k
        solve: its rows lie in the span, and G D^T = Gram Gram^-1 = 1."""
        G = np.atleast_2d(np.asarray(gens, dtype=float))
        if G.size == 0:
            if ambient_dim is None:
                raise InvalidArgumentError("zero cone needs an explicit ambient_dim")
            empty, gram = np.zeros((0, ambient_dim)), np.zeros((0, 0))
            for a in (empty, gram):
                a.setflags(write=False)
            return SimplicialCone(empty, gram, empty, tol)
        if not np.isfinite(G).all():
            raise InvalidArgumentError("generators have non-finite entries")
        k, n = G.shape
        gram = G @ G.T
        if k > n or np.linalg.eigvalsh(gram)[0] <= tol.eps_rank ** 2:
            raise DegenerateConeError("generators are linearly dependent")
        D = np.linalg.solve(gram, G)
        G = G.copy()
        for a in (G, gram, D):
            a.setflags(write=False)
        return SimplicialCone(G, gram, D, tol)

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


def face(c: SimplicialCone, I) -> SimplicialCone:
    """Face of a full-dimensional cone spanned by the generators indexed by
    I, a subset of 0..n-1."""
    n = c.ambient_dim
    I = sorted(int(i) for i in I)
    if I and (I[0] < 0 or I[-1] >= n or len(set(I)) != len(I)):
        raise InvalidArgumentError(f"I must be a subset of 0..{n - 1}")
    return SimplicialCone.from_generators(c.generators[I], ambient_dim=n, tol=c.tol)
