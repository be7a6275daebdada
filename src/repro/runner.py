"""Parallel sweep runner with an on-disk result cache.

Every experiment sweep point builds a fresh, fully isolated testbed
(see ``experiments.common.measure_latency``), so points are
embarrassingly parallel: :func:`run_sweep` fans them out over a
``ProcessPoolExecutor`` while keeping the output row order — and the
row *contents* — identical to a serial run.

Determinism
-----------
Three ingredients make ``--jobs N`` byte-identical to ``--jobs 1``:

* :func:`repro.simnet.packet.reset_id_state` runs before every point
  (in the worker and in the serial path), so packet/message/greq ids
  never depend on what ran earlier in the interpreter;
* any randomness an experiment uses is seeded from the point itself
  (either an explicit ``seed`` entry or :func:`point_seed`), never from
  global state;
* results are collected by point index, not completion order.

Result cache
------------
Rows are cached on disk keyed by a content hash of (experiment id,
point, params, source of every ``.py`` file in the ``repro`` package).
Any code edit — to the experiment or to the simulator under it —
invalidates every cached row; so does passing different ``SimParams``.
The ``params=None`` default resolves to ``SimParams()`` inside the
simulator, so a changed default is a source edit and is covered too.
Delete the cache directory (default ``.repro_cache/``, override with
``$REPRO_CACHE_DIR`` or ``--cache-dir``) to reclaim the space.

Worker pool
-----------
Each sweep runs its cache misses on ``min(jobs, os.cpu_count(),
misses)`` workers.  With more than one, the sweep forks its own
``ProcessPoolExecutor`` and shuts it down before returning; otherwise
the points run serially in this process.  No pool outlives its sweep.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "SweepStats",
    "LAST_STATS",
    "cache_dir",
    "point_key",
    "point_seed",
    "run_sweep",
    "source_hash",
]

#: bump when the cache entry layout changes (invalidates old entries)
CACHE_SCHEMA = 1

#: default cache directory (relative to the CWD the sweep runs from)
DEFAULT_CACHE_DIR = ".repro_cache"


@dataclass
class SweepStats:
    """Wall-clock and cache accounting for the last :func:`run_sweep`."""

    experiment: str = ""
    n_points: int = 0
    n_cached: int = 0
    n_computed: int = 0
    jobs: int = 1
    wall_s: float = 0.0
    cache_dir: Optional[str] = None

    def summary(self) -> str:
        src = f"{self.n_cached} cached + {self.n_computed} computed"
        par = f"jobs={self.jobs}" if self.jobs > 1 else "serial"
        return (
            f"{self.n_points} points ({src}), {par}, "
            f"{self.wall_s:.1f}s wall"
        )


#: stats of the most recent run_sweep() in this process (for CLI footers)
LAST_STATS = SweepStats()


def cache_dir(override: Optional[str] = None) -> str:
    """Resolve the cache directory: explicit arg > $REPRO_CACHE_DIR > default."""
    return override or os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR


@functools.lru_cache(maxsize=None)
def source_hash() -> str:
    """Hash of every ``.py`` file in the ``repro`` package (paths and
    contents), computed once per process: any code edit invalidates
    every cached row."""
    root = Path(__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def point_key(eid: str, point: Dict[str, Any], params: Any, src_hash: str) -> str:
    """Content-addressed cache key for one sweep point."""
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "experiment": eid,
            "point": point,
            "params": repr(params),  # SimParams is a frozen dataclass
            "src": src_hash,
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def point_seed(eid: str, point: Dict[str, Any]) -> int:
    """A deterministic RNG seed derived from the point's content (stable
    across processes, runs, and PYTHONHASHSEED)."""
    payload = json.dumps({"experiment": eid, "point": point},
                         sort_keys=True, default=repr)
    return int.from_bytes(hashlib.sha256(payload.encode()).digest()[:4], "big")


# --------------------------------------------------------------- cache I/O
def _cache_path(cdir: str, key: str) -> str:
    return os.path.join(cdir, f"{key}.json")


def _cache_load(cdir: str, key: str) -> Optional[Dict[str, Any]]:
    try:
        with open(_cache_path(cdir, key)) as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        return None
    if entry.get("key") != key:
        return None
    return entry


def _cache_store(cdir: str, key: str, eid: str, point: Dict[str, Any], row: Any) -> None:
    os.makedirs(cdir, exist_ok=True)
    path = _cache_path(cdir, key)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            json.dump({"key": key, "experiment": eid, "point": point, "row": row}, fh)
        os.replace(tmp, path)  # atomic: concurrent workers never see partials
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


# ------------------------------------------------------------- execution
def _exec_point(eid: str, point: Dict[str, Any], params: Any) -> Any:
    """Run one sweep point (this is the pool-worker entry point, so it
    must be a picklable module-level function).  The id-state reset makes
    the point's result independent of whatever this interpreter — a
    pool worker or the serial path — ran before."""
    from .experiments import REGISTRY
    from .simnet.packet import reset_id_state

    reset_id_state()
    return REGISTRY[eid].run_point(point, params)


def run_sweep(
    eid: str,
    points: Sequence[Dict[str, Any]],
    params: Any = None,
    jobs: int = 1,
    cache: bool = False,
    cache_dir_override: Optional[str] = None,
) -> List[Any]:
    """Run ``REGISTRY[eid].run_point(point, params)`` for every point.

    Results come back in ``points`` order regardless of ``jobs``.  With
    ``cache=True``, previously computed rows are returned from disk and
    only the misses are (re)simulated.
    """
    global LAST_STATS
    t0 = time.perf_counter()  # simlint: disable=SIM101 -- sweep wall-clock stats
    cdir = cache_dir(cache_dir_override) if cache else None
    stats = SweepStats(experiment=eid, n_points=len(points), cache_dir=cdir)

    results: List[Any] = [None] * len(points)
    keys: List[str] = []
    todo = list(range(len(points)))
    if cdir is not None:
        keys = [point_key(eid, pt, params, source_hash()) for pt in points]
        todo = []
        for i, key in enumerate(keys):
            entry = _cache_load(cdir, key)
            if entry is None:
                todo.append(i)
            else:
                results[i] = entry["row"]
        stats.n_cached = len(points) - len(todo)

    # more workers than cores or points only adds fork and scheduler churn
    stats.jobs = max(1, min(jobs, os.cpu_count() or 1, len(todo)))
    if stats.jobs > 1:
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        # fork keeps the already-imported repro package and works
        # without a __main__ guard in arbitrary callers
        with ProcessPoolExecutor(max_workers=stats.jobs,
                                 mp_context=mp.get_context("fork")) as ex:
            futs = [ex.submit(_exec_point, eid, points[i], params) for i in todo]
            for i, fut in zip(todo, futs):
                results[i] = fut.result()
    else:
        for i in todo:
            results[i] = _exec_point(eid, points[i], params)
    stats.n_computed = len(todo)
    if cdir is not None:
        for i in todo:
            _cache_store(cdir, keys[i], eid, points[i], results[i])

    stats.wall_s = time.perf_counter() - t0  # simlint: disable=SIM101 -- sweep wall-clock stats
    LAST_STATS = stats
    return results
