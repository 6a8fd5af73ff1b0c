"""The benchmark's per-layer probes (perfbench/layers.py) still see ccl.

The probes replace public names in the namespaces ccl looks them up in
(``ccl.verify.measure``, ``ccl.verify.verify_main``, ...).  A refactor that
calls around those names leaves the benchmark's layers reading 0; this runs
one traced ``ccl report`` in a fresh process and checks that they do not.
The cache-hit counter is installed in untraced rounds too, and the
benchmark asserts on it, so an untraced build-then-verify round checks
that a load from the cache still counts as one hit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, os, pathlib
import layers
probe = layers.Probe(timed=True)
probe.install()
import ccl.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = ccl.cli.main(["report", "--group", "A3", "--format", "json"])
metrics = probe.metrics(pathlib.Path(os.environ["CCL_CACHE_DIR"]))
print(json.dumps({"rc": rc, "reports": len(json.loads(out.getvalue())),
                  "metrics": metrics}))
"""

UNTRACED = """
import contextlib, io, json
import layers
probe = layers.Probe(timed=False)
probe.install()
import ccl.cli
with contextlib.redirect_stdout(io.StringIO()):
    rcs = [ccl.cli.main(["build", "--group", "A3"]),
           ccl.cli.main(["verify", "curious", "--group", "A3"])]
print(json.dumps({"rcs": rcs, "cache": probe.cache_counts()}))
"""


def run_probed(script, tmp_path):
    """Last stdout line of ``script``, run in a fresh process with the
    probes importable and an empty cache directory, as JSON."""
    cache = tmp_path / "cache"
    cache.mkdir()
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path, CCL_CACHE_DIR=str(cache))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, cwd=tmp_path, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_untraced_build_then_verify_counts_one_cache_hit(tmp_path):
    doc = run_probed(UNTRACED, tmp_path)
    assert doc["rcs"] == [0, 0]
    assert tuple(doc["cache"]) == (1, 0)


def test_traced_report_fills_the_probed_layers(tmp_path):
    doc = run_probed(SCRIPT, tmp_path)
    metrics = doc["metrics"]
    assert doc["rc"] == 0
    assert metrics["verify.verdicts"] == doc["reports"] > 0
    assert metrics["verify.oplus_s"] > 0
    assert metrics["groups.subgroup_s"] > 0
    assert metrics["cones.built"] > 0
