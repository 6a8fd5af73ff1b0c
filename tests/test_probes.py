"""The benchmark's per-layer probes (perfbench/layers.py) still see ccl.

The probes replace public names in the namespaces ccl looks them up in
(``ccl.verify.measure``, ``ccl.verify.verify_main``, ...).  A refactor that
calls around those names leaves the benchmark's layers reading 0; this runs
one traced ``ccl report`` in a fresh process and checks that they do not.
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


def test_traced_report_fills_the_probed_layers(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path, CCL_CACHE_DIR=str(cache))
    out = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                         text=True, env=env, cwd=tmp_path, timeout=120)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.splitlines()[-1])
    metrics = doc["metrics"]
    assert doc["rc"] == 0
    assert metrics["verify.verdicts"] == doc["reports"] > 0
    assert metrics["verify.oplus_s"] > 0
    assert metrics["groups.subgroup_s"] > 0
    assert metrics["cones.built"] > 0
