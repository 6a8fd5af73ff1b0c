"""Small dense linear algebra with an explicit tolerance policy.

Vectors and matrices are plain float64 numpy arrays.  All rank decisions go
through singular values compared against ``ToleranceConfig.eps_rank``, so
every downstream module shares one numerical policy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "SPAN_MATCH_TOL",
    "Subspace",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds shared across the package.  Each field has a
    CLI flag of the same name (``--eps-rank`` for ``eps_rank``).

    eps_rank       : singular values below this count as zero
    eps_root_match : snap distance when matching reflected roots to the list
    generic_margin : relative margin enforced by generic point samplers

    Monte Carlo membership takes no tolerance: a sample is inside a cone
    when its facet coordinates are >= 0.
    """

    eps_rank: float = 1e-7
    eps_root_match: float = 1e-6
    generic_margin: float = 1e-6

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0.0:
                raise InvalidArgumentError(f"{f.name} must be strictly positive")


DEFAULT_TOL = ToleranceConfig()

# Largest entry-wise difference at which a group element's image of a
# face's fixed points (the weights omega_i, i in I) still counts as equal to
# them, in the fixator check of ``groups.parabolic_subgroup``.  Over every
# supported group and face subset, images that match differ by at most
# 5e-14 and images that do not differ by at least 1.3, so any threshold far
# from both decides the same; it is a property of the float64 arithmetic,
# not a user-facing tolerance.
SPAN_MATCH_TOL = 1e-8

# Largest entry of |B B^T - 1| accepted for a row basis B called
# orthonormal.  The bases ccl builds (SVD rows, identity rows) stay within
# 1.2e-15 over every supported group's suite, while a basis that is not
# orthonormal is off by order 1, so the checks do not depend on the value.
ORTHONORMAL_TOL = 1e-9


@dataclass(frozen=True)
class Subspace:
    """A linear subspace held as an orthonormal basis (rows) of the ambient space."""

    orthonormal_basis: np.ndarray  # shape (dim, n), rows orthonormal
    dim: int

    @staticmethod
    def from_basis(basis) -> "Subspace":
        """Wrap an already-orthonormal row basis; rejects non-orthonormal input."""
        B = np.asarray(basis, dtype=float)
        if B.ndim != 2:
            raise InvalidArgumentError("basis must be a 2-d array of row vectors")
        if B.shape[0] > 0:
            gram = B @ B.T
            if np.abs(gram - np.eye(B.shape[0])).max() > ORTHONORMAL_TOL:
                raise InvalidArgumentError("basis rows are not orthonormal")
        B = B.copy()
        B.setflags(write=False)
        return Subspace(B, B.shape[0])

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace.from_basis(np.zeros((0, ambient_dim)))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.from_basis(np.eye(ambient_dim))

    @property
    def ambient_dim(self) -> int:
        return self.orthonormal_basis.shape[1]

    def projector(self) -> np.ndarray:
        """Projector onto the subspace: P = sum_i b_i b_i^T over the basis
        rows.  P is symmetric idempotent."""
        B = self.orthonormal_basis
        if B.shape[0] == 0:
            return np.zeros((self.ambient_dim, self.ambient_dim))
        if np.abs(B @ B.T - np.eye(B.shape[0])).max() > ORTHONORMAL_TOL:
            raise InvalidArgumentError("subspace basis is not orthonormal")
        return B.T @ B
