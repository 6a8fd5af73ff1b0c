import math

import numpy as np
import pytest

import ccl
from ccl.linalg import DEFAULT_TOL, ToleranceConfig


def kernel_dimension(M, tol=DEFAULT_TOL):
    """Oracle: dim ker M, counting singular values below eps_rank as zero."""
    return int(np.sum(np.linalg.svd(M, compute_uv=False) < tol.eps_rank))


def rotation2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_kernel_dimension_identity_case():
    assert kernel_dimension(np.zeros((3, 3))) == 3


def test_kernel_dimension_reflection():
    # I - R for a hyperplane reflection fixes a 2-dim space in R^3
    v = np.array([1.0, 2.0, 2.0]) / 3.0
    R = np.eye(3) - 2 * np.outer(v, v)
    assert kernel_dimension(np.eye(3) - R) == 2


def test_kernel_dimension_rotation():
    assert kernel_dimension(np.eye(2) - rotation2(2 * math.pi / 3)) == 0


def test_tolerance_config_positive():
    with pytest.raises(ccl.InvalidArgumentError):
        ToleranceConfig(eps_rank=0.0)
    assert DEFAULT_TOL.eps_rank == 1e-7
    assert DEFAULT_TOL.eps_root_match == 1e-6
    assert DEFAULT_TOL.generic_margin == 1e-6


def test_kernel_plus_rank_on_group_elements(built):
    for spec in ("A2", "B3", "I2(7)"):
        rs, g = built(spec)
        n = rs.n
        for w in g.matrix_stack:
            M = np.eye(n) - w
            s = np.linalg.svd(M, compute_uv=False)
            rank = int(np.sum(s >= DEFAULT_TOL.eps_rank))
            assert kernel_dimension(M) + rank == n
