"""Independent reference for ccl's verdicts.

Group orders and exponents of every supported reflection group are taken
from the classification (Humphreys, *Reflection Groups and Coxeter Groups*,
Tables 2.2 and 3.1), not from ccl.  By Shephard-Todd,

    sum over w in W of t^(dim Fix w)  =  prod_i (t + m_i),

so |W^k|, the number of elements whose fixed space has dimension k, is the
coefficient of t^k.  Every table entry checks itself against the classical
order formula: sum_k |W^k| = |W| and |W^0| = prod_i m_i.

``check_verdict`` judges one verdict (a report dict as ``ccl --format json``
prints it) against this table and against properties that hold whatever the
sampling did; ``check_coverage`` checks that a run produced every verdict it
asked for.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

IDENTITIES = ("curious", "main", "waldspurger", "covering", "oplus",
              "decomposition", "parabolic", "equiv-measure", "class-sum")
K_INDEXED = ("main", "oplus", "decomposition", "parabolic", "equiv-measure",
             "class-sum")
MEASURE_VALUED = ("curious", "main", "decomposition", "parabolic",
                  "equiv-measure")
COUNT_VALUED = ("waldspurger", "covering", "oplus")
# Breakdown rows that count failed tilings or containments.
FAILURE_ROWS = ("containment_failures", "tiling_failures")

EXACT_TOL = 1e-9
MC_SIGMAS = 4.0
FLOAT_SLACK = 1e-12

# The default catalog of `ccl report --all-groups`; H4 is opt-in.
CATALOG = (tuple(f"A{r}" for r in range(1, 6)) + ("B2", "B3", "B4", "D4")
           + tuple(f"I2({m})" for m in range(3, 13)) + ("H3", "F4"))

_SPEC = re.compile(r"(?P<fam>[ABD])(?P<rank>\d+)|I2\((?P<m>\d+)\)|(?P<ex>H3|F4|H4)")
_EXCEPTIONAL = {"H3": ((1, 5, 9), 120), "F4": ((1, 5, 7, 11), 1152),
                "H4": ((1, 11, 19, 29), 14400)}


def _exponents_and_order(spec: str) -> tuple[tuple[int, ...], int]:
    mo = _SPEC.fullmatch(spec)
    if mo is None:
        raise ValueError(f"no reference entry for group {spec!r}")
    if mo["ex"]:
        return _EXCEPTIONAL[mo["ex"]]
    if mo["m"]:
        m = int(mo["m"])
        return (1, m - 1), 2 * m
    fam, n = mo["fam"], int(mo["rank"])
    if fam == "A":
        return tuple(range(1, n + 1)), math.factorial(n + 1)
    if fam == "B":
        return tuple(range(1, 2 * n, 2)), 2 ** n * math.factorial(n)
    return (tuple(range(1, 2 * n - 2, 2)) + (n - 1,),
            2 ** (n - 1) * math.factorial(n))


@dataclass(frozen=True)
class GroupRef:
    spec: str
    exponents: tuple[int, ...]
    order: int
    fixed_dim_counts: tuple[int, ...]   # index k holds |W^k|

    @property
    def rank(self) -> int:
        return len(self.exponents)


def group_ref(spec: str) -> GroupRef:
    exps, order = _exponents_and_order(spec)
    coeffs = [1]                      # prod (t + m_i), lowest degree first
    for m in exps:
        coeffs = [m * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    if sum(coeffs) != order or coeffs[0] != math.prod(exps):
        raise ValueError(f"reference table is inconsistent for {spec}")
    return GroupRef(spec, exps, order, tuple(coeffs))


def _row(doc: dict, label: str) -> float | None:
    for name, value, _stderr in doc["per_term_breakdown"]:
        if name == label:
            return value
    return None


def check_verdict(doc: dict) -> list[str]:
    """Problems with one verdict; an empty list means it checks out.

    A verdict the program marks FAIL can still check out: these checks hold
    under any correlation between the terms, the program's pass rule does
    not.
    """
    ident, group, k = doc["identity_name"], doc["group"], doc["k"]
    where = f"{group} {ident} k={k}"
    ref = group_ref(group)
    num, den = doc["rhs_numerator"], doc["rhs_denominator"]
    lhs, samples = doc["lhs"], doc["samples"]
    problems = []

    expected_rhs = {
        "curious": (ref.fixed_dim_counts[0], ref.order),
        "waldspurger": (1, 1),
        "covering": (ref.fixed_dim_counts[0], 1),
        "decomposition": (1, 1),
    }.get(ident)
    if ident in ("main", "class-sum"):
        expected_rhs = (ref.fixed_dim_counts[k], ref.order)
    if expected_rhs is not None and (num, den) != expected_rhs:
        problems.append(f"{where}: rhs {num}/{den}, reference "
                        f"{expected_rhs[0]}/{expected_rhs[1]}")

    if ident in COUNT_VALUED and lhs != 0:
        problems.append(f"{where}: count deviation {lhs}, must be 0")
    for label in FAILURE_ROWS:
        if _row(doc, label) not in (None, 0):
            problems.append(f"{where}: {label} = {_row(doc, label)}")
    if ident == "class-sum" and doc["abs_error"] != 0:
        problems.append(f"{where}: exact rational sum off by {doc['abs_error']}")

    if ident in MEASURE_VALUED:
        err = abs(lhs - num / den)
        if abs(err - doc["abs_error"]) > FLOAT_SLACK:
            problems.append(f"{where}: abs_error {doc['abs_error']} != |lhs - rhs| {err}")
        stderr_sum = sum(row[2] for row in doc["per_term_breakdown"])
        if samples == 0 and err > EXACT_TOL:
            problems.append(f"{where}: exact terms, |lhs - rhs| = {err:.3g} > {EXACT_TOL:g}")
        if samples > 0 and err > MC_SIGMAS * stderr_sum:
            problems.append(f"{where}: |lhs - rhs| = {err:.3g} > "
                            f"{MC_SIGMAS:g} * sum of term stderrs {stderr_sum:.3g}")
    if ident == "decomposition" and k == ref.rank and _row(doc, "num_pieces") != ref.order:
        problems.append(f"{where}: {_row(doc, 'num_pieces')} pieces, |W| = {ref.order}")
    return problems


def expected_verdicts(spec: str, identity: str, ks=None) -> dict[tuple, int | None]:
    """Verdicts one run of ``identity`` gives, keyed by (group, identity, k).

    ``ks`` restricts a k-indexed identity, as ``--k`` does.  main and
    class-sum give one verdict per k; oplus, decomposition and parabolic
    one per k-subset of the generators; equiv-measure one per class of
    k-faces, which the table does not hold (None: at least one).
    """
    if identity not in K_INDEXED:
        return {(spec, identity, None): 1}
    rank = group_ref(spec).rank
    counts = {}
    for k in (range(rank + 1) if ks is None else ks):
        if identity in ("oplus", "decomposition", "parabolic"):
            counts[(spec, identity, k)] = math.comb(rank, k)
        else:
            counts[(spec, identity, k)] = None if identity == "equiv-measure" else 1
    return counts


def check_coverage(docs: list[dict], plan: dict[tuple, int | None]) -> list[str]:
    """Problems if the verdicts differ from ``plan`` (see expected_verdicts)."""
    seen = Counter((d["group"], d["identity_name"], d["k"]) for d in docs)
    problems = [f"unexpected verdicts {key}" for key in seen if key not in plan]
    for key, need in plan.items():
        if seen[key] == 0 or need not in (None, seen[key]):
            problems.append(f"{key}: {seen[key]} verdicts, expected {need or 'some'}")
    return problems
