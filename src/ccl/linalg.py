"""The numerical tolerance policy shared by every module.

Vectors and matrices are plain float64 numpy arrays.  Rank decisions
compare against ``ToleranceConfig.eps_rank``: the singular values of a
group element's 1 - w, and the smallest eigenvalue of a cone's Gram matrix
against its square, which is the same rule for the generators' smallest
singular value.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import InvalidArgumentError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "SPAN_MATCH_TOL",
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
