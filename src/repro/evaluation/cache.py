"""Content-addressed on-disk cache for evaluation cells.

The simulator is deterministic (rr-style: same seed, same inputs, same
cycle counts), so a (mechanism, workload, config) cell is a pure function
of its inputs and can be memoized soundly.  The cache key captures those
inputs coarsely enough that it cannot miss one:

- the cell identity: kind, mechanism (with its registry kwargs),
  workload, seed and parameters;
- the whole cycle-model cost table, ``CLOCK_HZ`` and the SUD
  signal-contention factor, plus the engine-tier escape hatches;
- one SHA-256 over the sorted relative paths and raw bytes of every
  ``*.py`` file in the ``repro`` package — and over the factory module of
  a mechanism registered from outside it.  Any edit to the package, a
  comment included, re-keys every cell.  A finer key would have to know
  each cell's import closure, and the hand-kept module lists this
  replaces had already missed K23's own runtime.  The digest is computed
  once per process and costs a few milliseconds.

Entries are one JSON file per key under the cache root (default
``~/.cache/repro-eval``, override with ``$REPRO_EVAL_CACHE``); writes are
atomic (temp file + rename) so concurrent runs never observe torn entries.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

#: Bump when the key layout or cell value format changes.
SCHEMA_VERSION = 2

#: Sentinel distinguishing "no entry" from a cached falsy value.
MISS = object()

#: The ``repro`` package directory whose sources every key digests.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]


def default_cache_root() -> Path:
    env = os.environ.get("REPRO_EVAL_CACHE")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro-eval").expanduser()


# ------------------------------------------------------------- source digests

#: Source-tree root → digest, so each tree is read once per process.
_DIGESTS: Dict[Path, str] = {}


def source_digest(root: Optional[Path] = None) -> str:
    """SHA-256 over the sorted relative paths and raw bytes of every
    ``*.py`` file under *root* (default: the ``repro`` package)."""
    root = Path(root) if root is not None else PACKAGE_ROOT
    digest = _DIGESTS.get(root)
    if digest is None:
        files = sorted((path.relative_to(root).as_posix(), path)
                       for path in root.rglob("*.py"))
        sha = hashlib.sha256()
        for relative, path in files:
            data = path.read_bytes()
            sha.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
            sha.update(data)
        digest = _DIGESTS[root] = sha.hexdigest()
    return digest


def _factory_digest(factory: str) -> Optional[str]:
    """Digest of a mechanism factory's module when it lives outside the
    package (None for in-package factories, which the package digest
    already covers)."""
    name = factory.partition(":")[0]
    if name == "repro" or name.startswith("repro."):
        return None
    path = getattr(importlib.import_module(name), "__file__", None)
    if path is None:
        return name
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ------------------------------------------------------------------ cell keys


def cell_key(kind: str, mechanism: str, workload: str, seed: int,
             params: Iterable[Tuple[str, object]] = ()) -> str:
    """The content-addressed key for one evaluation cell.

    Raises :class:`repro.interposers.registry.UnknownMechanismError` for a
    mechanism the registry has never seen (such a cell cannot be cached —
    or executed).
    """
    from repro.cpu.cycles import CLOCK_HZ, DEFAULT_COSTS
    from repro.cpu.cycles import SUD_CONTENTION_FACTOR
    from repro.cpu.engine import EngineConfig
    from repro.interposers.registry import REGISTRY

    spec = REGISTRY.get(mechanism)
    constants: Dict[str, object] = {
        "clock_hz": CLOCK_HZ,
        "costs": {event.name: cost for event, cost in DEFAULT_COSTS.items()},
        "sud_contention_factor": SUD_CONTENTION_FACTOR,
    }
    # Engine-tier selection cannot change any measured number (the tiers
    # are cycle-exact by construction), but a tier bug would — so cells
    # measured under different REPRO_NO_* hatches must never share an
    # entry: a hatched re-run has to re-execute, not read back the cached
    # full-tier value it was meant to cross-check.
    constants["engine"] = EngineConfig.from_env().label()
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "mechanism": mechanism,
        "mechanism_kwargs": list(spec.kwargs),
        "workload": workload,
        "seed": seed,
        "params": sorted((key, value) for key, value in params),
        "constants": constants,
        "source": source_digest(),
        "factory_source": _factory_digest(spec.factory),
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ------------------------------------------------------------------- the cache


class ResultCache:
    """One JSON file per cell key under *root*; values are JSON-safe cell
    measurements (ints/floats survive the round trip exactly)."""

    def __init__(self, root: "Path | str | None" = None):
        self.root = Path(root) if root is not None else default_cache_root()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str):
        """The cached value for *key*, or :data:`MISS`."""
        try:
            raw = self._path(key).read_text()
        except (OSError, ValueError):
            return MISS
        try:
            entry = json.loads(raw)
        except ValueError:
            return MISS
        if entry.get("schema") != SCHEMA_VERSION:
            return MISS
        return entry.get("value", MISS)

    def put(self, key: str, value, meta: Optional[Dict] = None) -> None:
        """Atomically persist *value* under *key* (best-effort: an
        unwritable cache degrades to a no-op, never an error)."""
        entry = {"schema": SCHEMA_VERSION, "value": value,
                 "meta": meta or {}}
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(entry, handle, sort_keys=True)
                os.replace(tmp, self._path(key))
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            pass

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.root.glob("*.json"))
        except OSError:
            return 0

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        try:
            for path in self.root.glob("*.json"):
                path.unlink()
                removed += 1
        except OSError:
            pass
        return removed


class NullCache(ResultCache):
    """The ``--no-cache`` cache: never hits, never writes."""

    def __init__(self):
        super().__init__(root=Path(os.devnull))

    def get(self, key: str):
        return MISS

    def put(self, key: str, value, meta: Optional[Dict] = None) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def clear(self) -> int:
        return 0
