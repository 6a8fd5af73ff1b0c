import argparse
import base64
import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ccl
from ccl.cache import PERM_DTYPE, cache_path_for, load_group, save_group
from ccl.cli import build_parser, main


def run_cli(args, tmp_path, extra_env=None):
    import os
    env = dict(os.environ, CCL_CACHE_DIR=str(tmp_path / "cache"))
    env.update(extra_env or {})
    return subprocess.run([sys.executable, "-m", "ccl.cli", *args],
                          capture_output=True, text=True, env=env)


def test_verify_curious_json_exit_zero(tmp_path):
    out = run_cli(["verify", "curious", "--group", "A2", "--format", "json"],
                  tmp_path)
    assert out.returncode == 0
    docs = json.loads(out.stdout)
    assert len(docs) == 1
    doc = docs[0]
    assert doc["passed"] is True
    assert doc["identity"] == "curious"
    assert doc["group"] == "A2"
    assert doc["rhs_numerator"] == 2 and doc["rhs_denominator"] == 6
    assert abs(doc["lhs"] - 1 / 3) < 1e-9
    assert doc["tool_version"] == ccl.__version__
    assert doc["schema_version"] == 1
    # keys are sorted in the emitted JSON
    raw = out.stdout[out.stdout.index("{"):out.stdout.rindex("}") + 1]
    keys = [line.split('"')[1] for line in raw.splitlines()
            if line.strip().startswith('"') and '":' in line]
    assert keys == sorted(keys)


def test_counts_unknown_group_exit_two(tmp_path):
    out = run_cli(["counts", "--group", "NOSUCH"], tmp_path)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "NOSUCH" in out.stderr


def test_unknown_flag_rejected(tmp_path):
    out = run_cli(["counts", "--group", "A2", "--bogus"], tmp_path)
    assert out.returncode == 2


def test_counts_h4_exit_zero(tmp_path):
    out = run_cli(["counts", "--group", "H4"], tmp_path)
    assert out.returncode == 0
    assert "|W| = 14400" in out.stdout


def test_h4_opt_in_flag_is_a_no_op(tmp_path):
    args = ["verify", "curious", "--group", "H4", "--samples", "20000",
            "--format", "json", "--no-cache"]
    plain = run_cli(args, tmp_path)
    flagged = run_cli(args + ["--enable-h4"], tmp_path)
    assert plain.returncode == 0 and flagged.returncode == 0
    assert plain.stdout == flagged.stdout


def test_missing_subcommand_exit_two(tmp_path):
    out = run_cli([], tmp_path)
    assert out.returncode == 2


def test_counts_text_b3(tmp_path):
    out = run_cli(["counts", "--group", "B3"], tmp_path)
    assert out.returncode == 0
    assert "|W| = 48" in out.stdout
    assert "|W^0| = 15" in out.stdout
    assert "PASS" in out.stdout


def test_build_then_counts_round_trip(tmp_path):
    built = run_cli(["build", "--group", "B3"], tmp_path)
    assert built.returncode == 0
    fresh = run_cli(["counts", "--group", "B3", "--no-cache"], tmp_path)
    cached = run_cli(["counts", "--group", "B3"], tmp_path)
    assert fresh.returncode == cached.returncode == 0
    assert fresh.stdout == cached.stdout


def test_report_group_reproducible_and_worker_independent(tmp_path):
    args = ["report", "--group", "I2(5)", "--seed", "42", "--format", "json",
            "--samples", "50000", "--trials", "40"]
    a = run_cli(args, tmp_path)
    b = run_cli(args, tmp_path)
    c = run_cli(args + ["--workers", "4"], tmp_path)
    assert a.returncode == 0
    assert a.stdout == b.stdout == c.stdout
    docs = json.loads(a.stdout)
    assert all(doc["passed"] for doc in docs)


def test_report_needs_group(tmp_path):
    out = run_cli(["report"], tmp_path)
    assert out.returncode == 2


def test_verify_all_text(tmp_path):
    out = run_cli(["verify", "all", "--group", "A2", "--samples", "50000",
                   "--trials", "30"], tmp_path)
    assert out.returncode == 0
    lines = [ln for ln in out.stdout.splitlines() if ln]
    assert all(ln.startswith("PASS") for ln in lines)
    names = {ln.split()[1] for ln in lines}
    assert "waldspurger" in names and "class-sum" in names


def test_eps_override_accepted(tmp_path):
    out = run_cli(["verify", "curious", "--group", "A2",
                   "--generic-margin", "1e-5"], tmp_path)
    assert out.returncode == 0


def test_eps_membership_flag_is_a_usage_error(tmp_path):
    out = run_cli(["verify", "curious", "--group", "A2",
                   "--eps-membership", "1e-10"], tmp_path)
    assert out.returncode == 2
    assert out.stdout == ""


def test_tolerance_flags_match_tolerance_config_fields():
    # every float option of every subcommand is a tolerance flag: the
    # flags and ToleranceConfig's fields are one set, and each flag sets
    # its field
    names = {f.name for f in dataclasses.fields(ccl.ToleranceConfig)}
    ap = build_parser()
    subparsers = next(a for a in ap._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, sub in subparsers.choices.items():
        flags = {a.option_strings[0]: a.dest for a in sub._actions
                 if a.type is float}
        assert set(flags.values()) == names, command
        assert all(flag == "--" + dest.replace("_", "-")
                   for flag, dest in flags.items())
    for name in names:
        args = ap.parse_args(["counts", "--group", "A1",
                              "--" + name.replace("_", "-"), "0.125"])
        assert getattr(ccl.cli._tolerances(args), name) == 0.125


def test_each_subcommand_takes_only_the_options_it_reads():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {command: {a.option_strings[0] for a in sub._actions
                         if a.option_strings}
               for command, sub in subparsers.choices.items()}
    every = {"-h", "--group", "--eps-rank", "--eps-root-match",
             "--generic-margin"}
    run = every | {"--seed", "--samples", "--trials", "--workers", "--k",
                   "--format", "--no-cache", "--enable-h4"}
    assert options == {
        "build": every | {"--enable-h4"},
        "counts": every | {"--format", "--no-cache"},
        "verify": run,
        "report": run | {"--all-groups"},
    }


@pytest.mark.parametrize("argv", [
    ["build", "--group", "A2", "--cache-path", "a2.json"],
    ["counts", "--group", "A2", "--cache-path", "a2.json"],
    ["verify", "curious", "--group", "A2", "--cache-path", "a2.json"],
    ["report", "--group", "A2", "--cache-path", "a2.json"],
    ["build", "--group", "A2", "--seed", "1"],
    ["counts", "--group", "A2", "--k", "1"],
])
def test_removed_flags_are_usage_errors(argv, tmp_path, capsys, monkeypatch):
    # the cache location is CCL_CACHE_DIR alone, and build and counts
    # reject the run options they would ignore
    monkeypatch.setenv("CCL_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().out == ""
    assert not any(tmp_path.iterdir())


def test_main_entry_direct(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CCL_CACHE_DIR", str(tmp_path / "cache"))
    rc = main(["counts", "--group", "A1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "|W| = 2" in out


def test_exit_one_when_a_check_fails(tmp_path, capsys, monkeypatch):
    import dataclasses

    import ccl.cli as cli_mod

    def failing_suite(rs, g, *args, **kwargs):
        rep = ccl.verify_curious(rs, g)
        return [dataclasses.replace(rep, passed=False)]

    monkeypatch.setenv("CCL_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(cli_mod, "run_suite", failing_suite)
    rc = main(["verify", "curious", "--group", "A2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("FAIL")


def test_runtime_error_exit_three(tmp_path, capsys, monkeypatch):
    import ccl.cli as cli_mod

    def exhausted_suite(*args, **kwargs):
        raise ccl.GenericityError("no generic point found within 100 resamples")

    monkeypatch.setenv("CCL_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(cli_mod, "run_suite", exhausted_suite)
    rc = main(["verify", "covering", "--group", "A2"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "generic point" in captured.err


def test_numerical_error_exit_three(tmp_path, capsys, monkeypatch):
    # a failed internal numerical check is a runtime fault, not a usage error
    cholesky = np.linalg.cholesky
    monkeypatch.setenv("CCL_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(np.linalg, "cholesky", lambda G: 1.01 * cholesky(G))
    rc = main(["counts", "--group", "A2"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "Gram check" in captured.err


def test_consistency_check_exit_three(tmp_path, capsys, monkeypatch):
    # a failed internal consistency check exits 3 like any numerical fault
    inv = np.linalg.inv
    monkeypatch.setenv("CCL_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(np.linalg, "inv", lambda M: 1.01 * inv(M))
    rc = main(["counts", "--group", "A2", "--no-cache"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "not orthogonal" in captured.err


def test_verify_matches_report_verdicts(tmp_path):
    # estimates are pure functions of the cone's class, so a verdict does
    # not depend on what else the process measured before it
    common = ["--group", "A5", "--format", "json", "--samples", "20000",
              "--trials", "20", "--no-cache"]
    one = run_cli(["verify", "decomposition", "--k", "4"] + common, tmp_path)
    full = run_cli(["report"] + common, tmp_path)
    assert one.returncode == 0 and full.returncode == 0
    docs = [d for d in json.loads(full.stdout)
            if d["identity"] == "decomposition" and d["k"] == 4]
    assert len(docs) == 5
    assert json.loads(one.stdout) == docs


def test_invalid_argument_exit_two(tmp_path):
    out = run_cli(["verify", "curious", "--group", "A2", "--samples", "10"],
                  tmp_path)
    assert out.returncode == 2
    assert "samples" in out.stderr


@pytest.mark.parametrize("identity,trials", [("covering", "0"),
                                             ("covering", "-3"),
                                             ("curious", "0")])
def test_trials_below_one_exit_two(identity, trials, capsys):
    # curious draws no trial point, so run_suite itself must reject it
    rc = main(["verify", identity, "--group", "A2", "--trials", trials,
               "--no-cache"])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert "trials must be >= 1" in out.err


@pytest.mark.parametrize("k", ["5", "-1"])
def test_k_out_of_range_exit_two(k, capsys):
    rc = main(["verify", "oplus", "--group", "A2", "--k", k, "--no-cache"])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert "k must be in 0..2" in out.err


def test_all_groups_k_skips_lower_ranks(capsys):
    rc = main(["report", "--all-groups", "--k", "5", "--samples", "1000",
               "--trials", "1", "--no-cache", "--format", "json"])
    out = capsys.readouterr()
    assert rc == 0
    docs = json.loads(out.out)
    assert docs and {d["group"] for d in docs} == {"A5"}


def test_all_groups_k_above_top_rank_exit_two(capsys):
    rc = main(["report", "--all-groups", "--k", "6", "--samples", "1000",
               "--trials", "1", "--no-cache"])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert "k must be in 0..5" in out.err


# ---------------------------------------------------------------------------
# cache layer

def _decode_table(doc) -> np.ndarray:
    raw = base64.b64decode(doc["simple_images"])
    return np.frombuffer(raw, dtype=PERM_DTYPE).reshape(doc["perm_shape"]).copy()


def _encode_table(images: np.ndarray) -> str:
    return base64.b64encode(images.astype(PERM_DTYPE).tobytes()).decode("ascii")


def test_cache_save_load_identical(tmp_path):
    rs = ccl.build(ccl.GroupType.parse("B3"))
    g = ccl.enumerate_group(rs)
    path = tmp_path / "b3.json"
    save_group(g, path)
    g2 = load_group(rs, path)
    assert np.array_equal(g2.matrix_stack, g.matrix_stack)
    assert g2.counts_by_fixed_dim == g.counts_by_fixed_dim
    assert np.array_equal(g2.simple_images, g.simple_images)


@pytest.mark.parametrize("t", ccl.SUPPORTED_TYPES, ids=str)
def test_cache_round_trip_every_group(t, tmp_path, built):
    rs, g = built(str(t))
    path = tmp_path / "g.json"
    save_group(g, path)
    # the table holds the n simple-root images of each element, nothing more
    assert json.loads(path.read_text())["perm_shape"] == [g.order, rs.n]
    g2 = load_group(ccl.build(t), path)
    assert g2.order == g.order
    assert g2.simple_images.dtype == g.simple_images.dtype
    assert np.array_equal(g2.simple_images, g.simple_images)
    assert np.array_equal(g2.matrix_stack, g.matrix_stack)
    assert np.array_equal(g2.fixed_dims, g.fixed_dims)
    assert np.array_equal(g2.left_mult, g.left_mult)
    assert g2.counts_by_fixed_dim == g.counts_by_fixed_dim


def test_cache_rejects_version_mismatch(tmp_path):
    rs = ccl.build(ccl.GroupType.parse("A2"))
    g = ccl.enumerate_group(rs)
    path = tmp_path / "a2.json"
    save_group(g, path)
    doc = json.loads(path.read_text())
    doc["schema_version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(ccl.CacheError):
        load_group(rs, path)


def test_cache_rejects_wrong_group(tmp_path):
    rs_a = ccl.build(ccl.GroupType.parse("A2"))
    rs_b = ccl.build(ccl.GroupType.parse("B2"))
    path = tmp_path / "x.json"
    save_group(ccl.enumerate_group(rs_a), path)
    with pytest.raises(ccl.CacheError):
        load_group(rs_b, path)


def test_cache_rejects_tampered_perms(tmp_path):
    rs = ccl.build(ccl.GroupType.parse("A2"))
    g = ccl.enumerate_group(rs)
    path = tmp_path / "a2.json"
    save_group(g, path)
    doc = json.loads(path.read_text())
    images = _decode_table(doc)
    images[[1, 2]] = images[[2, 1]]
    doc["simple_images"] = _encode_table(images)
    # swapping two layer-1 elements breaks the documented BFS tie-break
    # order but still forms the same set; counts stay valid, so loading
    # succeeds only if the stored order is reproduced exactly
    path.write_text(json.dumps(doc))
    g2 = load_group(rs, path)
    assert not np.array_equal(g2.simple_images, g.simple_images)
    assert np.array_equal(g2.simple_images[[1, 2]], g.simple_images[[2, 1]])
    assert np.array_equal(g2.matrix_stack[[1, 2]], g.matrix_stack[[2, 1]])


def test_cache_rejects_changed_simple_root_image(tmp_path):
    # any other root index in one stored image names a different element,
    # a duplicate or no element at all; each breaks a checked fact
    rs = ccl.build(ccl.GroupType.parse("B3"))
    g = ccl.enumerate_group(rs)
    path = tmp_path / "b3.json"
    save_group(g, path)
    doc = json.loads(path.read_text())
    images = _decode_table(doc)
    for row, col in [(0, 0), (5, 1), (g.order - 1, 2)]:
        for root in range(rs.num_roots):
            if root == images[row, col]:
                continue
            changed = images.copy()
            changed[row, col] = root
            doc["simple_images"] = _encode_table(changed)
            path.write_text(json.dumps(doc))
            with pytest.raises(ccl.CacheError):
                load_group(rs, path)


def test_cache_rejects_corrupt_counts(tmp_path):
    rs = ccl.build(ccl.GroupType.parse("A2"))
    g = ccl.enumerate_group(rs)
    path = tmp_path / "a2.json"
    save_group(g, path)
    doc = json.loads(path.read_text())
    doc["counts_by_fixed_dim"] = [1, 2, 3]
    path.write_text(json.dumps(doc))
    with pytest.raises(ccl.CacheError):
        load_group(rs, path)


def test_cache_round_trip_h4(tmp_path):
    rs = ccl.build(ccl.GroupType.parse("H4"))
    g = ccl.enumerate_group(rs)
    path = tmp_path / "h4.json"
    save_group(g, path)
    # 14 400 x 4 uint16 images in base64 are 0.15 MiB; the full
    # 14 400 x 120 table of schema 2 took 4.4 MiB
    assert path.stat().st_size < 0.25 * 2 ** 20
    g2 = load_group(rs, path)
    assert g2.simple_images.dtype == g.simple_images.dtype
    assert np.array_equal(g2.simple_images, g.simple_images)
    assert np.array_equal(g2.matrix_stack, g.matrix_stack)
    assert g2.counts_by_fixed_dim == g.counts_by_fixed_dim


def _truncate(doc):
    doc["simple_images"] = doc["simple_images"][:-3]


def _wrong_shape(doc):
    doc["perm_shape"] = [doc["perm_shape"][0] - 1, doc["perm_shape"][1]]


def _out_of_range(doc):
    images = _decode_table(doc)
    images[3, 0] = np.iinfo(np.uint16).max
    doc["simple_images"] = _encode_table(images)


def _no_roots(doc):
    del doc["roots"]


def _full_table(doc):
    """The (order, num_roots) permutation table earlier schemas stored, read
    off the matrices: entry (w, c) is the root nearest to w applied to
    root c."""
    rs = ccl.build(ccl.GroupType.parse(doc["group"]))
    R = rs.all_roots
    images = ccl.enumerate_group(rs).matrix_stack @ R.T      # (order, n, num_roots)
    d = np.linalg.norm(images.transpose(0, 2, 1)[:, :, None] - R[None, None], axis=3)
    return d.argmin(axis=2).astype(np.int32)


def _schema_one(doc):
    doc["schema_version"] = 1
    doc["permutations"] = _full_table(doc).tolist()
    del doc["perm_shape"], doc["simple_images"]


def _schema_two(doc):
    perms = _full_table(doc)
    doc["schema_version"] = 2
    doc["permutations"] = _encode_table(perms)
    doc["perm_shape"] = list(perms.shape)
    del doc["simple_images"]


@pytest.mark.parametrize("tamper", [_truncate, _wrong_shape, _out_of_range,
                                    _no_roots, _schema_one, _schema_two],
                         ids=["truncated", "wrong-shape", "out-of-range",
                              "no-roots", "schema-1", "schema-2"])
def test_cache_rejects_malformed_table(tmp_path, tamper):
    rs = ccl.build(ccl.GroupType.parse("B3"))
    path = tmp_path / "b3.json"
    save_group(ccl.enumerate_group(rs), path)
    doc = json.loads(path.read_text())
    tamper(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ccl.CacheError):
        load_group(rs, path)


def test_cache_rejects_non_object(tmp_path):
    rs = ccl.build(ccl.GroupType.parse("A2"))
    path = tmp_path / "a2.json"
    path.write_text("[]")
    with pytest.raises(ccl.CacheError):
        load_group(rs, path)


def test_rejected_cache_is_named_on_stderr(tmp_path, monkeypatch):
    rs = ccl.build(ccl.GroupType.parse("B3"))
    monkeypatch.setenv("CCL_CACHE_DIR", str(tmp_path / "cache"))
    path = cache_path_for(rs.group_type)
    args = ["verify", "curious", "--group", "B3", "--format", "json"]
    fresh = run_cli(args + ["--no-cache"], tmp_path)
    assert fresh.returncode == 0 and fresh.stderr == ""
    for old_schema in (_schema_one, _schema_two):
        save_group(ccl.enumerate_group(rs), path)
        doc = json.loads(path.read_text())
        old_schema(doc)
        path.write_text(json.dumps(doc))
        stale = run_cli(args, tmp_path)
        assert stale.returncode == 0
        assert stale.stdout == fresh.stdout
        (line,) = stale.stderr.splitlines()
        assert str(path) in line and "ccl build" in line
        assert f"cache schema {doc['schema_version']} != 3" in line


def test_cache_hit_report_identical(tmp_path):
    args = ["report", "--group", "F4", "--samples", "20000", "--format", "json"]
    assert run_cli(["build", "--group", "F4"], tmp_path).returncode == 0
    hit = run_cli(args, tmp_path)
    fresh = run_cli(args + ["--no-cache"], tmp_path)
    assert hit.returncode == 0 and fresh.returncode == 0
    assert hit.stderr == ""
    assert hit.stdout == fresh.stdout


def test_cache_path_uses_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CCL_CACHE_DIR", str(tmp_path / "env-cache"))
    p = cache_path_for(ccl.GroupType.parse("I2(7)"))
    assert str(tmp_path / "env-cache") in str(p)
    assert p.name == "I2_7.json"


# ---------------------------------------------------------------------------
# --samples selects the method of dimension >= 4 measures


def _curious_a4(extra, capsys):
    rc = main(["verify", "curious", "--group", "A4", "--format", "json",
               "--no-cache"] + extra)
    out = capsys.readouterr()
    return rc, out


def test_default_measure_is_exact(capsys):
    rc, out = _curious_a4([], capsys)
    assert rc == 0
    (doc,) = json.loads(out.out)
    assert doc["samples"] == 0 and doc["combined_stderr"] == 0.0
    assert doc["tolerance_rule"].startswith("exact: ")
    assert doc["abs_error"] <= 1e-9 and doc["passed"] is True


def test_samples_flag_selects_monte_carlo(capsys):
    rc, out = _curious_a4(["--samples", "20000"], capsys)
    assert rc == 0
    (doc,) = json.loads(out.out)
    assert doc["samples"] == 20_000 and doc["combined_stderr"] > 0.0
    assert doc["tolerance_rule"].startswith("mc: ")


def test_samples_below_minimum_exit_two(capsys):
    rc, out = _curious_a4(["--samples", "999"], capsys)
    assert rc == 2
    assert out.out == ""
    assert "samples must be >= 1000" in out.err


def test_default_mc_config_is_exact():
    assert ccl.McConfig().samples is None


# ---------------------------------------------------------------------------
# headline outputs, pinned byte for byte

HEADLINE_PINS = {
    (): (2_361_375,
         "34699ed40d73a645c9add178dcf2d8589916956b8cb6c15f0e9a2c73d70f251e"),
    ("--samples", "20000", "--seed", "42"): (
        2_433_220,
        "49166635aff07acf32c7877ff45408a7096c264b4ae2d7292d7414f7290b3909"),
}


# the same two runs as a table that does not depend on the report schema:
# one [identity, group, k, passed, rhs_numerator, rhs_denominator, lhs] row
# per verdict, in report order, under the runs' extra arguments joined by
# spaces
HEADLINE_TABLE = Path(__file__).resolve().parent / "data" / "all-groups-verdicts.json"
VERDICT_FIELDS = ("identity", "group", "k", "passed", "rhs_numerator",
                  "rhs_denominator", "lhs")


@pytest.fixture(scope="module")
def headline_report(tmp_path_factory):
    """(exit code, stdout bytes) of ``report --all-groups --format json
    --no-cache`` with the given extra arguments, run in process once per
    module, so the byte pin and the table pin read one run."""
    outputs = {}

    def report(extra):
        if extra not in outputs:
            with (pytest.MonkeyPatch.context() as mp,
                  contextlib.redirect_stdout(io.StringIO()) as out):
                mp.setenv("CCL_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
                rc = main(["report", "--all-groups", "--format", "json",
                           "--no-cache", *extra])
            outputs[extra] = rc, out.getvalue().encode()
        return outputs[extra]

    return report


@pytest.mark.parametrize("extra", sorted(HEADLINE_PINS), ids=" ".join)
def test_all_groups_json_report_bytes_are_pinned(extra, headline_report):
    # a change that moves any digit of any report shows up here, as an
    # edited pin
    import hashlib
    rc, out = headline_report(extra)
    assert rc == 0
    assert (len(out), hashlib.sha256(out).hexdigest()) == HEADLINE_PINS[extra]


@pytest.mark.parametrize("extra", sorted(HEADLINE_PINS), ids=" ".join)
def test_all_groups_verdict_table_is_pinned(extra, headline_report):
    # every verdict's identity, group, k, pass flag and rhs exactly, and its
    # lhs to 1e-12 relative, whatever the rest of the report holds; a
    # mismatch names the first verdict that differs
    import math
    _, out = headline_report(extra)
    rows = [[doc[f] for f in VERDICT_FIELDS] for doc in json.loads(out)]
    pinned = json.loads(HEADLINE_TABLE.read_text())[" ".join(extra)]
    for i, (row, pin) in enumerate(zip(rows, pinned)):
        assert row[:-1] == pin[:-1] and math.isclose(
            row[-1], pin[-1], rel_tol=1e-12, abs_tol=0.0), (
            f"verdict {i} differs: {row} against pinned {pin}")
    assert len(rows) == len(pinned)
