"""On-disk group cache: a JSON document with a binary permutation table.

Schema 2 keeps ``schema_version``, ``group``, ``roots``,
``counts_by_fixed_dim`` and ``metadata`` readable.  The permutation stack
is one base64 string of little-endian uint16 root indices (``PERM_DTYPE``)
of shape ``perm_shape``.  Reloading reproduces the enumerated group
permutation-for-permutation; matrices and fixed-space dimensions are
recomputed deterministically from the stored roots and permutations, and
every stored fact is checked against them.  A file of another schema version (schema 1
stored the permutations as nested integer lists) or any malformed payload
raises CacheError; ``load_or_enumerate`` then says on stderr why the file
was ignored and enumerates instead.
"""

from __future__ import annotations

import base64
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CacheError
from .groups import Group, enumerate_group, group_from_perm_stack
from .roots import GroupType, RootSystem

SCHEMA_VERSION = 2
# Fixed byte order, so a file reads the same on every host; root indices
# of the supported groups stay far below 2**16.
PERM_DTYPE = "<u2"


def default_cache_dir() -> Path:
    env = os.environ.get("CCL_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "ccl"


def cache_path_for(t: GroupType, directory: Path | None = None) -> Path:
    d = directory or default_cache_dir()
    name = str(t).replace("(", "_").replace(")", "")
    return d / f"{name}.json"


def save_group(g: Group, path: Path) -> None:
    rs = g.root_system
    doc = {
        "schema_version": SCHEMA_VERSION,
        "group": str(rs.group_type),
        "roots": [[float(x) for x in row] for row in rs.all_roots],
        "perm_shape": list(g.perm_stack.shape),
        "permutations": base64.b64encode(
            g.perm_stack.astype(PERM_DTYPE).tobytes()).decode("ascii"),
        "counts_by_fixed_dim": list(g.counts_by_fixed_dim),
        "metadata": {
            "tool_version": __version__,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "order": g.order,
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True))
    tmp.replace(path)


def load_group(rs: RootSystem, path: Path) -> Group:
    """Rebuild the Group from a cache file; validates it against ``rs``."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CacheError(f"cannot read cache {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CacheError("cache is not a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise CacheError(
            f"cache schema {doc.get('schema_version')} != {SCHEMA_VERSION}")
    if doc.get("group") != str(rs.group_type):
        raise CacheError("cache was written for a different group")
    try:
        roots = np.array(doc["roots"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheError(f"cached roots are malformed: {exc}") from exc
    if roots.shape != rs.all_roots.shape or np.abs(roots - rs.all_roots).max() > 0:
        raise CacheError("cached roots do not match the constructed root system")

    perms = _decode_perms(doc, rs.num_roots)
    try:
        g = group_from_perm_stack(rs, perms)
    except Exception as exc:
        raise CacheError(f"cached permutations are not a valid group: {exc}") from exc
    if list(g.counts_by_fixed_dim) != doc.get("counts_by_fixed_dim"):
        raise CacheError("cached fixed-dimension counts are inconsistent")
    return g


def _decode_perms(doc: dict, num_roots: int) -> np.ndarray:
    """The stored permutation stack as int32, checked against its shape."""
    try:
        shape = tuple(doc["perm_shape"])
        raw = base64.b64decode(doc["permutations"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheError(f"cached permutation table is malformed: {exc}") from exc
    if len(shape) != 2 or not all(type(d) is int and d >= 0 for d in shape):
        raise CacheError(f"cached perm_shape {list(shape)} is not a 2-d shape")
    expected = shape[0] * shape[1] * np.dtype(PERM_DTYPE).itemsize
    if len(raw) != expected:
        raise CacheError(f"cached permutation table has {len(raw)} bytes, "
                         f"not the {expected} of perm_shape {list(shape)}")
    perms = np.frombuffer(raw, dtype=PERM_DTYPE).reshape(shape)
    if perms.size and perms.max() >= num_roots:
        raise CacheError(f"cached permutation entry {perms.max()} is not a "
                         f"root index below {num_roots}")
    return perms.astype(np.int32)


def load_or_enumerate(rs: RootSystem, path: Path | None = None) -> Group:
    """Use a valid cache when present; otherwise enumerate in memory.

    A cache file that fails to load is named on stderr with the reason,
    then ignored.
    """
    p = path or cache_path_for(rs.group_type)
    if p.exists():
        try:
            return load_group(rs, p)
        except CacheError as exc:
            print(f"ccl: ignoring cache {p}: {exc}; "
                  f"run 'ccl build' to refresh it", file=sys.stderr)
    return enumerate_group(rs)
