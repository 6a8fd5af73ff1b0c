"""One round of one benchmark workload, in a process of its own.

    python3 perfbench/workload.py <catalog|h4-cached|a5-default> <seed> <trace 0|1>

``run.py`` starts this with PYTHONPATH pointing at the checkout's ``src``,
CCL_CACHE_DIR pointing at an empty private directory and BLAS/OpenMP capped
at one thread.  A round is set-up (importing ccl plus the workload's
one-time preparation) followed by the timed commands, with slices of the
reference loop (refloop.py) run between them, outside their timings.  The
round prints one JSON line: its timings, the mean reference slice time,
peak memory, verdict counts, a digest of the verdict JSON, the problems the
checks found and, when traced, its per-layer metrics.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

CATALOG_SAMPLES = 20_000
# Verdicts left out of the catalog.  Each sums Monte Carlo terms drawn from
# one shared sample stream while the program adds their variances as if
# independent, so it fails on some seeds and passes on others: over 200
# seeds at 20 000 samples, main k=1 fails 1 %, main k=4 and equiv-measure
# k=4 5 %, decomposition k=4 about half.  a5-default measures the last one.
CATALOG_LEFT_OUT = {"A5": {"main": (1, 4), "equiv-measure": (4,),
                           "decomposition": (4,)}}
H4_IDENTITIES = tuple(i for i in reference.IDENTITIES if i != "decomposition")
A5_SUBSET = (0, 1, 2, 3)
A5_SEED = 42
# Reference slices (refloop.py) per round: Round.slices_per_command after
# every command (catalog: 40 commands, h4-cached: 8); a5-default's single
# call runs A5_SLICES before and after it and one after every
# A5_MEASURES_PER_SLICE-th of its 120 measure calls.
A5_SLICES = 20
A5_MEASURES_PER_SLICE = 3


class Round:
    """Set-up and timed commands of one workload; ``plan`` collects the
    verdicts the commands should give (see reference.expected_verdicts)."""

    expected_cache = (0, 0)           # (hits, misses)
    slices_per_command = 0

    def __init__(self, seed: int, probe: layers.Probe):
        import ccl.cli
        self.ccl = ccl
        self.seed = seed
        self.probe = probe
        self.plan: dict[tuple, int | None] = {}
        self.outputs: list[tuple[list[str], int | None, str]] = []
        self.timed_s = 0.0                # sum of the timed commands' wall times
        self.ref_slices: list[float] = []

    def reference(self, n: int) -> None:
        import refloop                    # builds its data after set-up
        self.ref_slices.extend(refloop.slice_s() for _ in range(n))

    def cli(self, argv: list[str]) -> int:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = self.ccl.cli.main(argv)
        self.timed_s += time.perf_counter() - t0
        self.outputs.append((argv, rc, buf.getvalue()))
        self.reference(self.slices_per_command)
        return rc

    def verify(self, group: str, identity: str, common: list[str], k=None) -> None:
        ks = None if k is None else [k]
        self.cli(["verify", identity, "--group", group] + common
                 + ([] if k is None else ["--k", str(k)]))
        self.plan.update(reference.expected_verdicts(group, identity, ks))

    def setup(self) -> None:
        pass

    def run(self) -> None:
        raise NotImplementedError


class Catalog(Round):
    """``ccl report`` over the default catalog (H4 excluded) from an empty
    cache; a group with left-out verdicts runs one ``ccl verify`` per
    identity, and per k where some k is left out, instead."""

    slices_per_command = 1

    def run(self) -> None:
        common = ["--samples", str(CATALOG_SAMPLES), "--seed", str(self.seed),
                  "--workers", "1", "--format", "json"]
        for group in reference.CATALOG:
            left_out = CATALOG_LEFT_OUT.get(group)
            if left_out is None:
                self.cli(["report", "--group", group] + common)
                for identity in reference.IDENTITIES:
                    self.plan.update(reference.expected_verdicts(group, identity))
                continue
            for identity in reference.IDENTITIES:
                if identity not in left_out:
                    self.verify(group, identity, common)
                    continue
                for k in range(reference.group_ref(group).rank + 1):
                    if k not in left_out[identity]:
                        self.verify(group, identity, common, k)
        self.expected_cache = (0, len(self.outputs))


class H4Cached(Round):
    """``ccl build`` for H4 in set-up, then one ``ccl verify`` per identity
    except decomposition, each loading the cache file."""

    expected_cache = (len(H4_IDENTITIES), 0)
    slices_per_command = 4

    def setup(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.ccl.cli.main(["build", "--group", "H4", "--enable-h4"])
        if rc != 0:
            raise RuntimeError("ccl build --group H4 failed")

    def run(self) -> None:
        common = ["--enable-h4", "--seed", str(self.seed), "--workers", "1",
                  "--format", "json"]
        for identity in H4_IDENTITIES:
            self.verify("H4", identity, common)


class A5Default(Round):
    """The A5 decomposition verdict for one k=4 face subset at the default
    1 000 000 samples and seed 42.  It fails every time (see CATALOG_LEFT_OUT),
    whatever the benchmark seed, which therefore does not enter it."""

    def setup(self) -> None:
        ccl = self.ccl
        self.rs = ccl.build(ccl.GroupType.parse("A5"))
        self.group = ccl.enumerate_group(self.rs)

    def run(self) -> None:
        ccl = self.ccl
        measure, calls, paused = ccl.verify.measure, 0, 0.0

        def measure_then_reference(*args, **kwargs):
            nonlocal calls, paused
            estimate = measure(*args, **kwargs)
            calls += 1
            if calls % A5_MEASURES_PER_SLICE == 0:
                t0 = time.perf_counter()
                self.reference(1)
                dt = time.perf_counter() - t0
                paused += dt
                self.probe.exclude(dt)
            return estimate

        self.reference(A5_SLICES)
        ccl.verify.measure = measure_then_reference
        try:
            t0 = time.perf_counter()
            report = ccl.verify.verify_face_decomposition(
                self.rs, self.group, A5_SUBSET, ccl.McConfig(seed=A5_SEED))
            self.timed_s += time.perf_counter() - t0 - paused
        finally:
            ccl.verify.measure = measure
        self.reference(A5_SLICES)
        self.outputs.append((["verify_face_decomposition", "A5", str(A5_SUBSET)],
                             None, json.dumps(report.to_dict(), sort_keys=True)))
        self.plan[("A5", "decomposition", len(A5_SUBSET))] = 1


WORKLOADS = {"catalog": Catalog, "h4-cached": H4Cached, "a5-default": A5Default}


def check(rnd: Round, probe: layers.Probe) -> tuple[list[dict], list[str]]:
    docs, problems = [], []
    for argv, rc, text in rnd.outputs:
        try:
            out = json.loads(text)
        except json.JSONDecodeError:
            problems.append(f"{' '.join(argv)}: exit {rc}, output is not JSON")
            continue
        out = out if isinstance(out, list) else [out]
        want_rc = 0 if all(d["passed"] for d in out) else 1
        if rc is not None and rc != want_rc:
            problems.append(f"{' '.join(argv)}: exit {rc}, verdicts imply {want_rc}")
        docs.extend(out)
    for d in docs:
        problems.extend(reference.check_verdict(d))
    problems.extend(reference.check_coverage(docs, rnd.plan))
    if probe.cache_counts() != rnd.expected_cache:
        problems.append(f"cache (hits, misses) = {probe.cache_counts()}, "
                        f"expected {rnd.expected_cache}")
    return docs, problems


def machine(ccl) -> str:
    import numpy
    backend = getattr(ccl, "kernel_backend", None)
    return (f"{os.cpu_count()} cores, Python {sys.version.split()[0]}, "
            f"numpy {numpy.__version__}, kernel {backend() if backend else 'n/a'}")


def main() -> int:
    workload, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    import ccl
    src = (ROOT / "src").resolve()
    if src not in Path(ccl.__file__).resolve().parents:
        print(f"workload: imported ccl from {ccl.__file__}, not from {src}", file=sys.stderr)
        return 2
    cache_dir = Path(os.environ["CCL_CACHE_DIR"])
    if any(cache_dir.iterdir()):
        print(f"workload: cache directory {cache_dir} is not empty", file=sys.stderr)
        return 2

    probe = layers.Probe(timed=traced)
    probe.install()
    rnd = WORKLOADS[workload](seed, probe)
    rnd.setup()
    setup_s = time.perf_counter() - T_START
    rnd.run()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    docs, problems = check(rnd, probe)
    digest = hashlib.sha256()
    for _argv, _rc, text in rnd.outputs:
        digest.update(text.encode())
    result = {
        "setup_s": setup_s,
        "wall_s": rnd.timed_s,
        "ref_slice_s": sum(rnd.ref_slices) / len(rnd.ref_slices),
        "peak_rss_mib": peak_rss_mib,
        "verdicts": len(docs),
        "failed": sum(1 for d in docs if not d["passed"]),
        "digest": digest.hexdigest(),
        "problems": problems,
        "machine": machine(ccl),
    }
    if traced:
        result["layers"] = probe.metrics(cache_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
