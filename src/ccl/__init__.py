"""ccl: chamber geometry of finite reflection groups.

Builds the supported irreducible reflection groups, computes relative
angle measures of the cones attached to their chambers (exactly up to
dimension 5 by default, or by seeded Monte Carlo from dimension 4 when a
sample count is given), and verifies the chamber-face angle identities
with exact integer right-hand sides.

Cones come from ``chamber``, ``dual`` and ``face``, and each is its
generator rows with their Gram matrix, which alone decides its measure.
``ccl.verify.Geometry`` builds each chamber face F_I and each quotient
dual (C/F_I)*, the face of the dual chamber on the simple roots outside I,
once per group.
"""

__version__ = "0.1.0"

from .angles import AngleEstimate, AngleMethod, McConfig, measure
from .cones import SimplicialCone, chamber, dual, face
from .errors import (CacheError, CclError, DegenerateConeError,
                     GenericityError, GroupTooLargeError,
                     InvalidArgumentError, NonFiniteSystemError,
                     NumericalError, UnsupportedGroupError)
from .groups import (Group, enumerate_group, group_from_simple_images,
                     normalizer_of_span, parabolic_subgroup, regular_count,
                     solomon_check, subspace_orbits)
from .linalg import DEFAULT_TOL, ToleranceConfig
from .roots import (SUPPORTED_TYPES, GroupType, RootSystem, build,
                    generate_roots)
from .verify import (SUITE_IDENTITIES, GenericPointSampler,
                     VerificationReport, run_suite, verify_class_sum,
                     verify_covering_count, verify_curious,
                     verify_equiv_measure, verify_face_decomposition,
                     verify_face_oplus_covering, verify_main,
                     verify_parabolic_quotient, verify_waldspurger_partition)
