"""Acceptance suite: the exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them inline).
"""

import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import ccl
from ccl.angles import McConfig, _measure_mc, measure
from ccl.cones import SimplicialCone
from ccl.verify import (Geometry, verify_class_sum,
                        verify_covering_count, verify_curious,
                        verify_equiv_measure, verify_face_decomposition,
                        verify_face_oplus_covering, verify_main,
                        verify_parabolic_quotient,
                        verify_waldspurger_partition)

EXACT_GROUPS = ["A2", "B2", "I2(6)", "I2(7)", "A3", "B3", "H3"]
INTEGER_GROUPS = ([f"A{r}" for r in range(1, 6)] + ["B2", "B3", "B4", "D4"]
                  + [f"I2({m})" for m in range(3, 13)] + ["H3", "F4", "H4"])
MC_GROUPS = ["F4", "D4", "B4", "A4"]

SIGMA_DUAL_REFERENCE = {
    "A2": Fraction(1, 3), "B2": Fraction(3, 8), "I2(6)": Fraction(5, 12),
    "B3": Fraction(15, 48), "H3": Fraction(45, 120),
}

ORDER_TABLE = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "A5": 720,
    "B2": 8, "B3": 48, "B4": 384, "D4": 192,
    "H3": 120, "F4": 1152, "H4": 14400,
    **{f"I2({m})": 2 * m for m in range(3, 13)},
}

MC1M = McConfig(samples=1_000_000, seed=42)


def announce(label, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"\nACCEPTANCE {label}: PASS{suffix}")


def fail_line(label):
    print(f"\nACCEPTANCE {label}: FAIL")


def test_criterion_1_exact_geometry(built):
    label = "1 exact-geometry suite"
    t0 = time.perf_counter()
    try:
        for spec in EXACT_GROUPS:
            rs, g = built(spec)
            r = verify_curious(rs, g)
            assert r.passed and r.combined_stderr == 0.0, f"{spec} curious"
            assert r.abs_error <= 1e-9
            if spec in SIGMA_DUAL_REFERENCE:
                assert abs(r.lhs - float(SIGMA_DUAL_REFERENCE[spec])) <= 1e-9
            for k in range(rs.n + 1):
                rm = verify_main(rs, g, k)
                assert rm.passed and rm.abs_error <= 1e-9, f"{spec} main k={k}"
                assert rm.combined_stderr == 0.0
                for cls in ccl.subspace_orbits(g, k):
                    rq = verify_equiv_measure(rs, g, cls)
                    assert rq.passed and rq.abs_error <= 1e-9, \
                        f"{spec} equiv-measure {cls}"
            for k in range(rs.n + 1):
                for I in itertools.combinations(range(rs.n), k):
                    rd = verify_face_decomposition(rs, g, I, trials=100)
                    assert rd.passed and rd.abs_error <= 1e-9, \
                        f"{spec} decomposition I={I}"
                    rp = verify_parabolic_quotient(rs, g, I, trials=100)
                    assert rp.passed and rp.abs_error <= 1e-9, \
                        f"{spec} parabolic I={I}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"exact suite took {elapsed:.2f}s (budget 5s)"
    except Exception:
        fail_line(label)
        raise
    announce(label, time.perf_counter() - t0)


def test_criterion_2_integer_suite(built):
    label = "2 integer suite"
    t0 = time.perf_counter()
    try:
        for spec in INTEGER_GROUPS:
            rs, g = built(spec)
            assert g.order == ORDER_TABLE[spec], f"{spec} order"
            assert sum(g.counts_by_fixed_dim) == g.order
            assert g.counts_by_fixed_dim[rs.n - 1] == rs.num_positive_roots
            assert ccl.solomon_check(g, rs.exponents), f"{spec} solomon"
            for k in range(rs.n + 1):
                rc = verify_class_sum(rs, g, k)
                assert rc.passed, f"{spec} class-sum k={k}"
            rw = verify_waldspurger_partition(rs, g, trials=100, seed=42)
            assert rw.passed and rw.lhs == 0.0, f"{spec} waldspurger"
            rv = verify_covering_count(rs, g, trials=100, seed=42)
            assert rv.passed, f"{spec} covering"
            assert rv.rhs_numerator == g.counts_by_fixed_dim[0]
            for k in range(rs.n + 1):
                for I in itertools.combinations(range(rs.n), k):
                    ro = verify_face_oplus_covering(rs, g, I, trials=100,
                                                    seed=42)
                    assert ro.passed, f"{spec} oplus I={I}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"integer suite took {elapsed:.2f}s (budget 30s)"
    except Exception:
        fail_line(label)
        raise
    announce(label, time.perf_counter() - t0)


def test_criterion_3_monte_carlo_suite(built):
    label = "3 monte-carlo suite"
    t0 = time.perf_counter()
    try:
        for spec in MC_GROUPS:
            rs, g = built(spec)
            r = verify_curious(rs, g, MC1M)
            tol = 4 * r.combined_stderr if r.combined_stderr else 1e-9
            assert r.passed and r.abs_error <= tol, f"{spec} curious"
            if spec == "F4":
                assert (r.rhs_numerator, r.rhs_denominator) == (385, 1152)
                assert abs(385 / 1152 - 0.33420) < 5e-5
            for k in range(rs.n + 1):
                rm = verify_main(rs, g, k, MC1M)
                tol = 4 * rm.combined_stderr if rm.combined_stderr else 1e-9
                assert rm.passed and rm.abs_error <= tol, f"{spec} main k={k}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"mc suite took {elapsed:.2f}s (budget 300s)"
    except Exception:
        fail_line(label)
        raise
    announce(label, time.perf_counter() - t0)


def quotient(rs, I):
    """The quotient cone C/F_I: the weights outside I projected onto
    span(F_I)-perp."""
    W = rs.fundamental_weights
    F = W[list(I)]
    P = np.eye(rs.n) - F.T @ np.linalg.solve(F @ F.T, F) if I else np.eye(rs.n)
    rest = [j for j in range(rs.n) if j not in I]
    return SimplicialCone.from_generators(W[rest] @ P, ambient_dim=rs.n,
                                          tol=rs.tol)


def test_criterion_4_cross_method_consistency(built):
    label = "4 cross-method consistency"
    t0 = time.perf_counter()
    try:
        checked = 0
        for spec in EXACT_GROUPS:
            rs, g = built(spec)
            geo = Geometry(rs, g)
            cones = [geo.dual]
            for k in range(rs.n + 1):
                for I in itertools.combinations(range(rs.n), k):
                    cones.append(geo.face(I))
                    cones.append(quotient(rs, I))
                    cones.append(geo.quotient_dual(I))
            seen = set()
            for c in cones:
                if c.dim not in (2, 3):
                    continue
                key = tuple(sorted(map(tuple, np.round(
                    c.generators / np.linalg.norm(c.generators, axis=1,
                                                  keepdims=True), 6))))
                if key in seen:
                    continue
                seen.add(key)
                exact = measure(c).value
                est = _measure_mc(c, MC1M)
                assert abs(est.value - exact) <= 4 * est.stderr, \
                    f"{spec} cone dim {c.dim}: mc {est.value} vs exact {exact}"
                checked += 1
        assert checked >= 20
    except Exception:
        fail_line(label)
        raise
    announce(label, time.perf_counter() - t0)


def test_criterion_5_reproducibility(tmp_path):
    label = "5 reproducibility"
    try:
        env = dict(os.environ, CCL_CACHE_DIR=str(tmp_path / "cache"))
        args = [sys.executable, "-m", "ccl.cli", "report", "--group", "H3",
                "--seed", "42", "--format", "json"]
        runs = [subprocess.run(args, capture_output=True, text=True, env=env)
                for _ in range(2)]
        many = subprocess.run(args + ["--workers", "8"], capture_output=True,
                              text=True, env=env)
        assert runs[0].returncode == 0
        assert runs[0].stdout == runs[1].stdout, "same-seed runs differ"
        assert runs[0].stdout == many.stdout, "worker count changed the report"
        docs = json.loads(runs[0].stdout)
        assert docs and all(d["passed"] for d in docs)
        assert all(d["seed"] == 42 for d in docs)
    except Exception:
        fail_line(label)
        raise
    announce(label)


def test_criterion_6_calibration_controls():
    label = "6 calibration controls"
    try:
        z = np.random.default_rng(42).standard_normal((MC1M.samples, 4))
        p = np.count_nonzero(z[:, 0] >= 0.0) / len(z)
        se = (p * (1 - p) / len(z)) ** 0.5
        assert abs(p - 0.5) <= 4 * se, f"half-space fraction {p}"
        est = measure(SimplicialCone.from_generators(np.eye(4)), MC1M)
        assert abs(est.value - 1 / 16) <= 4 * est.stderr, \
            f"orthant fraction {est.value}"
    except Exception:
        fail_line(label)
        raise
    announce(label)
