"""Per-layer probes installed from outside ccl.

Each probe replaces a public ccl name in the namespace its caller looks it
up in (``ccl.verify.measure`` rather than ``ccl.angles.measure``), so no
code inside ``src/ccl`` changes and internal refactors that keep those
names keep the probes working.  A span is timed only at its outermost call
per metric key, so nested calls of one layer are not counted twice.

Cache hit and miss counting is always installed: it adds one counter
increment per cache lookup and is what turns a silent cache miss into a
failed check.  Everything else is installed only for a traced round.
"""

from __future__ import annotations

import inspect
import itertools
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

VERIFIERS = {
    "verify_curious": "curious",
    "verify_main": "main",
    "verify_waldspurger_partition": "waldspurger",
    "verify_covering_count": "covering",
    "verify_face_oplus_covering": "oplus",
    "verify_face_decomposition": "decomposition",
    "verify_parabolic_quotient": "parabolic",
    "verify_equiv_measure": "equiv-measure",
    "verify_class_sum": "class-sum",
}
SUBGROUP_FUNCTIONS = ("parabolic_subgroup", "normalizer_of_span",
                      "subspace_orbits", "regular_count")

_PERMS: dict[int, np.ndarray] = {}


def gram_key(cone) -> tuple[int, bytes]:
    """Congruence key of a simplicial cone: the Gram matrix of its unit
    generators, minimised lexicographically over generator orderings."""
    gens = np.asarray(cone.generators, dtype=float)
    unit = gens / np.linalg.norm(gens, axis=1, keepdims=True)
    gram = unit @ unit.T
    k = gram.shape[0]
    perms = _PERMS.setdefault(k, np.array(list(itertools.permutations(range(k)))))
    cands = np.round(gram[perms[:, :, None], perms[:, None, :]], 9).reshape(len(perms), -1)
    cands += 0.0                      # -0.0 and 0.0 must give one key
    best = cands[np.lexsort(cands.T[::-1])[0]]
    return k, best.tobytes()


class Probe:
    """Calls (outermost per key), seconds and derived counts per metric key."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.gram_keys: set = set()
        self._open: dict[str, int] = defaultdict(int)

    def wrap(self, owner, name: str, *keys: str, after=None) -> None:
        inner = getattr(owner, name)
        static = isinstance(inspect.getattr_static(owner, name), staticmethod)
        probe = self

        def wrapper(*args, **kwargs):
            outer = [k for k in keys if not probe._open[k]]
            for k in outer:
                probe._open[k] += 1
            t0 = time.perf_counter() if probe.timed else 0.0
            try:
                result = inner(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0 if probe.timed else 0.0
                for k in outer:
                    probe._open[k] -= 1
                    probe.calls[k] += 1
                    probe.seconds[k] += dt
            if after is not None:
                after(result, dt, *args, **kwargs)
            return result

        setattr(owner, name, staticmethod(wrapper) if static else wrapper)

    def exclude(self, seconds: float) -> None:
        """Take time the benchmark itself spent inside open spans out of them."""
        for key, depth in self._open.items():
            if depth:
                self.seconds[key] -= seconds

    def _cache_hit(self, *_):
        self.counts["cache.hits"] += 1

    def _measured(self, est, dt, cone, *_args, **_kwargs):
        if est.samples:               # Monte Carlo; exact methods report 0 samples
            self.counts["angles.mc_runs"] += 1
            self.counts["angles.samples_counted"] += est.samples
            self.seconds["angles.mc"] += dt
            self.gram_keys.add(gram_key(cone))
        else:
            self.counts["angles.exact_calls"] += 1
            self.seconds["angles.exact"] += dt

    def _wrap_sampler(self, cls) -> None:
        inner = cls.sample
        probe = self

        def sample(sampler, *args, **kwargs):
            before = sampler.resamples
            try:
                return inner(sampler, *args, **kwargs)
            finally:
                probe.counts["verify.trials"] += 1
                probe.counts["verify.resamples"] += sampler.resamples - before

        cls.sample = sample

    def install(self) -> None:
        import ccl
        import ccl.cache
        import ccl.cli
        import ccl.cones
        import ccl.verify

        cli, cache, verify = ccl.cli, ccl.cache, ccl.verify
        self.wrap(cache, "load_group", "cache.load", after=self._cache_hit)
        self.wrap(cli, "load_or_enumerate", "cache.lookup", "cli.inner")
        if not self.timed:
            return
        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "run_suite", "cli.inner")
        self.wrap(cli, "save_group", "cache.save", "cli.inner")
        self.wrap(cli, "build", "roots.build", "cli.inner")
        self.wrap(ccl, "build", "roots.build")
        self.wrap(cli, "enumerate_group", "groups.enumerate", "cli.inner")
        self.wrap(cache, "enumerate_group", "groups.enumerate")
        self.wrap(ccl, "enumerate_group", "groups.enumerate")
        for name in SUBGROUP_FUNCTIONS:
            self.wrap(verify, name, "groups.subgroup")
        self.wrap(ccl.cones.SimplicialCone, "from_generators", "cones.build")
        self.wrap(verify, "measure", "angles.measure", after=self._measured)
        for name, identity in VERIFIERS.items():
            self.wrap(verify, name, f"verify.{identity}", "verify.verdicts")
        self._wrap_sampler(verify.GenericPointSampler)

    def cache_counts(self) -> tuple[int, int]:
        hits = self.counts["cache.hits"]
        return hits, self.calls["cache.lookup"] - hits

    def metrics(self, cache_dir: Path) -> dict[str, float]:
        """Per-layer metrics of a traced round, keyed by BENCHMARK.json name."""
        c, s = self.counts, self.seconds
        hits, misses = self.cache_counts()
        mc_runs, mc_s = c["angles.mc_runs"], s["angles.mc"]
        distinct = len(self.gram_keys)
        out = {
            "roots.build_s": s["roots.build"],
            "groups.enumerate_s": s["groups.enumerate"],
            "groups.enumerate_calls": self.calls["groups.enumerate"],
            "groups.subgroup_s": s["groups.subgroup"],
            "cache.save_s": s["cache.save"],
            "cache.load_s": s["cache.load"],
            "cache.hits": hits,
            "cache.misses": misses,
            "cache.file_mib": sum(p.stat().st_size for p in cache_dir.iterdir()) / 2 ** 20,
            "cones.built": self.calls["cones.build"],
            "cones.build_s": s["cones.build"],
            "angles.measure_calls": self.calls["angles.measure"],
            "angles.exact_calls": c["angles.exact_calls"],
            "angles.exact_s": s["angles.exact"],
            "angles.mc_runs": mc_runs,
            "angles.mc_s": mc_s,
            "angles.samples_counted": c["angles.samples_counted"],
            "angles.mc_msamples_per_s": (c["angles.samples_counted"] / mc_s / 1e6
                                         if mc_s else 0.0),
            "angles.distinct_cones": distinct,
            "angles.distinct_ratio": distinct / mc_runs if mc_runs else 0.0,
        }
        for identity in VERIFIERS.values():
            out[f"verify.{identity}_s"] = s[f"verify.{identity}"]
        out["verify.verdicts"] = self.calls["verify.verdicts"]
        out["verify.trials"] = c["verify.trials"]
        out["verify.resamples"] = c["verify.resamples"]
        out["cli.self_s"] = s["cli.main"] - s["cli.inner"]
        return out
