"""Command-line interface.

Subcommands: build (enumerate and cache), counts (fixed-dimension table
plus the exponent product check), verify <identity>, and report (the full
suite as a JSON array).  Exit codes: 0 all passed, 1 a verification
failed, 2 usage error (argparse errors, UnsupportedGroupError,
InvalidArgumentError such as --trials below 1 or --k outside 0..n, or
outside 0..5 with --all-groups, which skips the groups of rank below k),
3 any other CclError raised while running (for example GenericityError
when no generic point is found, or NumericalError when an internal
numerical check fails).  Reports go to stdout; diagnostics to stderr.

Each subcommand takes only the options it reads, plus --group and one
flag per ToleranceConfig field; the cache directory is set by the
CCL_CACHE_DIR environment variable alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import __version__
from .angles import McConfig
from .cache import cache_path_for, load_or_enumerate, save_group
from .errors import CclError, InvalidArgumentError, UnsupportedGroupError
from .groups import enumerate_group, solomon_check
from .linalg import ToleranceConfig
from .roots import SUPPORTED_TYPES, GroupType, build
from .verify import SUITE_IDENTITIES, run_suite

USAGE_ERROR = 2
RUNTIME_ERROR = 3


# The options besides --group and the tolerance flags; verify and report
# take them all.
_OPTIONS = {
    "--seed": dict(type=int, default=42),
    "--samples": dict(type=int, default=None, metavar="N",
                      help="estimate dimension >= 4 measures by seeded Monte "
                           "Carlo with N samples each (the paper's method); "
                           "default: exact quadrature"),
    "--trials": dict(type=int, default=100,
                     help="generic-point trials per counting check"),
    "--workers": dict(type=int, default=1,
                      help="accepted and ignored; Monte Carlo runs on one thread"),
    "--k": dict(type=int, default=None,
                help="restrict k-indexed identities to one k; with "
                     "--all-groups, k is in 0..5 and lower ranks are skipped"),
    "--format": dict(choices=("text", "json"), default="text"),
    "--no-cache": dict(action="store_true", help="always enumerate in memory"),
    "--enable-h4": dict(action="store_true",
                        help="accepted and ignored; H4 is supported like every "
                             "other group"),
}


def _add_options(p: argparse.ArgumentParser, options, need_group: bool = True):
    p.add_argument("--group", required=need_group,
                   help="group spec, e.g. A2, B4, D4, I2(7), H3, F4, H4")
    for flag in options:
        p.add_argument(flag, **_OPTIONS[flag])
    for f in fields(ToleranceConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ccl",
        description="chamber cone angle measures of finite reflection groups")
    ap.add_argument("--version", action="version", version=f"ccl {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="enumerate a group and write its cache file")
    _add_options(p, ("--enable-h4",))

    p = sub.add_parser("counts", help="print the |W^k| table and exponent check")
    _add_options(p, ("--format", "--no-cache"))

    p = sub.add_parser("verify", help="verify one identity (or all) for a group")
    p.add_argument("identity", choices=SUITE_IDENTITIES + ("all",))
    _add_options(p, _OPTIONS)

    p = sub.add_parser("report", help="run the full suite; emit a JSON array")
    _add_options(p, _OPTIONS, need_group=False)
    p.add_argument("--all-groups", action="store_true",
                   help="run over the whole supported catalog")
    return ap


def _tolerances(args) -> ToleranceConfig:
    """The defaults, with each tolerance flag given on the command line."""
    return ToleranceConfig(**{f.name: getattr(args, f.name)
                              for f in fields(ToleranceConfig)
                              if getattr(args, f.name) is not None})


def _get_group(args, tol: ToleranceConfig, spec: str):
    t = GroupType.parse(spec)
    rs = build(t, tol)
    if args.no_cache:
        return rs, enumerate_group(rs)
    return rs, load_or_enumerate(rs)


REPORT_SCHEMA_VERSION = 2


def _report_dict(r) -> dict:
    d = r.to_dict()
    d["identity"] = r.identity_name
    d["tool_version"] = __version__
    d["schema_version"] = REPORT_SCHEMA_VERSION
    return d


def _emit_text(reports, out) -> None:
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        kpart = "-" if r.k is None else str(r.k)
        out.write(
            f"{status} {r.identity_name:<13s} {r.group:<7s} k={kpart:<2s} "
            f"lhs={r.lhs:.12g} rhs={r.rhs_numerator}/{r.rhs_denominator} "
            f"err={r.abs_error:.3g} stderr={r.combined_stderr:.3g} "
            f"seed={r.seed}\n")


def _cmd_build(args, tol) -> int:
    t = GroupType.parse(args.group)
    rs = build(t, tol)
    g = enumerate_group(rs)
    path = cache_path_for(t)
    save_group(g, path)
    print(f"wrote {path} (|W| = {g.order}, {rs.num_roots} roots)")
    return 0


def _cmd_counts(args, tol) -> int:
    rs, g = _get_group(args, tol, args.group)
    ok = solomon_check(g, rs.exponents)
    if args.format == "json":
        doc = {
            "group": str(rs.group_type),
            "order": g.order,
            "counts_by_fixed_dim": list(g.counts_by_fixed_dim),
            "exponents": list(rs.exponents),
            "exponent_product_check": ok,
            "num_positive_roots": rs.num_positive_roots,
            "tool_version": __version__,
            "schema_version": REPORT_SCHEMA_VERSION,
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"group {rs.group_type}: |W| = {g.order}, "
              f"{rs.num_positive_roots} positive roots")
        for k, c in enumerate(g.counts_by_fixed_dim):
            print(f"  |W^{k}| = {c}")
        print(f"exponents {rs.exponents}: "
              f"product check {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _run(args, tol, specs, names) -> int:
    """Run the identities ``names`` on each group of ``specs``: text is
    written group by group, JSON as one array at the end."""
    mc = McConfig(samples=args.samples, seed=args.seed)
    docs = []
    all_ok = True
    for spec in specs:
        rs, g = _get_group(args, tol, spec)
        reports = run_suite(rs, g, names, k=args.k, mc=mc, trials=args.trials)
        all_ok &= all(r.passed for r in reports)
        if args.format == "text":
            _emit_text(reports, sys.stdout)
        else:
            docs.extend(_report_dict(r) for r in reports)
    if args.format != "text":
        sys.stdout.write(json.dumps(docs, sort_keys=True, indent=2) + "\n")
    return 0 if all_ok else 1


def _cmd_verify(args, tol) -> int:
    names = SUITE_IDENTITIES if args.identity == "all" else (args.identity,)
    return _run(args, tol, [args.group], names)


def _cmd_report(args, tol) -> int:
    if args.all_groups:
        top = max(t.rank for t in SUPPORTED_TYPES)
        if args.k is not None and not 0 <= args.k <= top:
            raise InvalidArgumentError(f"k must be in 0..{top}")
        specs = [str(t) for t in SUPPORTED_TYPES if t.rank >= (args.k or 0)]
    elif args.group:
        specs = [args.group]
    else:
        raise UnsupportedGroupError("report needs --group or --all-groups")
    return _run(args, tol, specs, SUITE_IDENTITIES)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        tol = _tolerances(args)
        if args.command == "build":
            return _cmd_build(args, tol)
        if args.command == "counts":
            return _cmd_counts(args, tol)
        if args.command == "verify":
            return _cmd_verify(args, tol)
        if args.command == "report":
            return _cmd_report(args, tol)
        raise UnsupportedGroupError(f"unknown command {args.command}")
    except (UnsupportedGroupError, InvalidArgumentError) as exc:
        print(f"ccl: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except CclError as exc:
        print(f"ccl: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
