"""JSON/CSV persistence for study results, with a schema round-trip guard.

Saves the flat result rows plus the sweep configuration, so analyses
(or regression comparisons against a previous run) can reload a study
without re-simulating.

Two version stamps guard the round-trip:

* ``format_version`` — the JSON container layout (top-level keys);
* ``schema_version`` — the *row* schema (the CSV field set).  Bump it
  whenever :data:`~repro.harness.reporting.CSV_FIELDS` changes meaning,
  so stale baselines are rejected loudly instead of mis-compared.

CSV files carry no header beyond the field row itself; :func:`load_csv_rows`
treats that header as the schema stamp and rejects mismatches.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import pickle
from typing import Dict, List, Optional

from repro.errors import MetricError
from repro.harness.experiments import ExperimentConfig, StudyResults, iter_results
from repro.harness.reporting import CSV_FIELDS, coerce_row, result_row
from repro.resilience.locks import FileLock

FORMAT_VERSION = 1

#: Version of the per-row result schema (the CSV_FIELDS contract).
SCHEMA_VERSION = 1


def study_to_dict(study: StudyResults) -> Dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "schema_version": SCHEMA_VERSION,
        "domain": list(study.config.domain),
        "stencils": list(study.config.stencils),
        "variants": list(study.config.variants),
        "results": [result_row(r) for r in iter_results(study)],
    }
    if study.failed:
        doc["failed"] = [
            {
                "stencil": fp.stencil,
                "platform": fp.platform,
                "variant": fp.variant,
                "error_type": fp.error_type,
                "message": fp.message,
                "attempts": fp.attempts,
                "timed_out": fp.timed_out,
            }
            for _, fp in sorted(study.failed.items())
        ]
    return doc


def dump_study(study: StudyResults, path: str) -> None:
    """Atomically write a study document to ``path``.

    Temp file + ``os.replace`` (the checkpoint pattern): a crash
    mid-write leaves the previous file intact instead of a truncated
    JSON body that ``load_rows`` rejects with a confusing parse error.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as f:
            json.dump(study_to_dict(study), f, indent=1)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_rows(path: str) -> List[Dict]:
    """Load the flat result rows of a saved study.

    Rejects files whose container or row schema version does not match
    this library's, so regression comparisons never silently mix
    incompatible result generations.
    """
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format_version") != FORMAT_VERSION:
        raise MetricError(
            f"unsupported study file version {doc.get('format_version')!r}"
        )
    schema = doc.get("schema_version")
    if schema != SCHEMA_VERSION:
        raise MetricError(
            f"study row schema version {schema!r} does not match this "
            f"library's {SCHEMA_VERSION}; re-run the study to regenerate"
        )
    rows = doc["results"]
    for row in rows:
        missing = set(CSV_FIELDS) - set(row)
        if missing:
            raise MetricError(f"saved row missing fields {sorted(missing)}")
    return rows


def load_csv_rows(path: str) -> List[Dict]:
    """Load rows from :func:`~repro.harness.reporting.write_csv` output.

    The header row doubles as the schema stamp: it must match
    ``CSV_FIELDS`` exactly (same names, same order), otherwise the file
    was written by a different schema generation and is rejected.

    Cells come back *typed* (via the shared
    :data:`~repro.harness.reporting.FIELD_TYPES` map): CSV text like
    ``"0.0"`` is coerced to ``0.0``, so reloaded rows behave like the
    rows :func:`~repro.harness.reporting.result_row` produced —
    arithmetic and truthiness in :func:`compare_rows` work instead of
    crashing on strings (or treating ``"0.0"`` as truthy).  A cell that
    cannot be coerced is a corrupt file and raises
    :class:`~repro.errors.MetricError` naming the row.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise MetricError(f"{path}: empty CSV (no header row)") from None
        if tuple(header) != CSV_FIELDS:
            raise MetricError(
                f"{path}: CSV header {header} does not match schema "
                f"version {SCHEMA_VERSION} fields {list(CSV_FIELDS)}"
            )
        rows = []
        for lineno, raw in enumerate(reader, start=2):
            try:
                rows.append(coerce_row(dict(zip(CSV_FIELDS, raw))))
            except ValueError as exc:
                raise MetricError(f"{path}:{lineno}: {exc}") from None
        return rows


# ---- persistent on-disk study cache ---------------------------------------
#
# Repeated CLI invocations (``repro-stencil table 3`` then ``figure 4``)
# are separate processes, so the in-process memo of ``cached_study``
# cannot help them.  The disk cache stores the full pickled
# ``StudyResults`` (flat rows would lose the Platform/Traffic/Timing
# objects the renderers need), keyed by a sha256 hash of the sweep
# configuration.  ``SCHEMA_VERSION`` is part of both the key payload
# and the stored blob: bumping it orphans every stale entry, and a
# version-mismatched or corrupt file loads as a plain miss (the sweep
# re-runs and overwrites it).  The cache is strictly opt-in — callers
# pass ``cache_dir`` (CLI ``--cache-dir`` / ``$REPRO_CACHE_DIR``).

#: Layout stamp of the objects pickled into cache and checkpoint blobs.
#: Bump it when a pickled class changes how it stores its state: the
#: result records became ``slots=True`` dataclasses, and a blob written
#: before that would unpickle into corrupt objects, so an unstamped blob
#: loads as a miss.  Unlike ``SCHEMA_VERSION`` it is not part of the
#: cache key or the result-store identity, so bumping it orphans no
#: stored rows.
PICKLE_LAYOUT = 2

#: Environment variable supplying a cache directory when no ``cache_dir``
#: argument is given.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """``~/.cache/repro-stencil`` (XDG_CACHE_HOME honoured)."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-stencil")


def study_cache_key(config: ExperimentConfig) -> str:
    """Stable content hash of one sweep configuration (+ schema)."""
    payload = json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "schema_version": SCHEMA_VERSION,
            "stencils": list(config.stencils),
            "variants": list(config.variants),
            "domain": list(config.domain),
            "platforms": [p.name for p in config.platforms()],
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def study_cache_path(cache_dir: str, config: ExperimentConfig) -> str:
    return os.path.join(cache_dir, f"study-{study_cache_key(config)}.pkl")


def save_study_cache(study: StudyResults, cache_dir: str) -> str:
    """Persist a study under ``cache_dir``; returns the file path.

    The write is atomic (temp file + rename), so a concurrent reader
    sees either the old entry or the new one, never a torn pickle; the
    sidecar :class:`FileLock` additionally serialises concurrent
    *writers* (two service replicas completing the same config), so
    replicas sharing one cache directory never interleave.
    """
    os.makedirs(cache_dir, exist_ok=True)
    path = study_cache_path(cache_dir, study.config)
    blob = {
        "schema_version": SCHEMA_VERSION,
        "pickle_layout": PICKLE_LAYOUT,
        "study": study,
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with FileLock(f"{path}.lock"):
        try:
            with open(tmp, "wb") as f:
                pickle.dump(blob, f, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return path


def _load_blob(path: str) -> Optional[Dict]:
    """The pickled blob at ``path`` if it carries this build's schema and
    pickle-layout stamps, else None (missing or unreadable files too)."""
    try:
        with open(path, "rb") as f:
            blob = pickle.load(f)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError):
        return None
    if (
        not isinstance(blob, dict)
        or blob.get("schema_version") != SCHEMA_VERSION
        or blob.get("pickle_layout") != PICKLE_LAYOUT
    ):
        return None
    return blob


def load_study_cache(
    config: ExperimentConfig, cache_dir: str
) -> Optional[StudyResults]:
    """Load the cached study for ``config``, or None on any mismatch.

    Missing files, unreadable pickles, schema-version or pickle-layout
    drift, and config mismatches (a hash collision, or a cache written
    by an incompatible build) all return None — the caller re-simulates.
    """
    blob = _load_blob(study_cache_path(cache_dir, config))
    if blob is None:
        return None
    study = blob.get("study")
    if not isinstance(study, StudyResults) or study.config != config:
        return None
    return study


# ---- sweep checkpoints (interrupt/failure recovery) -----------------------
#
# A checkpoint is the completed slice of one sweep: a plain dict of
# (stencil, platform, variant) -> SimulationResult, flushed periodically
# by ``run_study`` while the sweep is in flight and finalised when it
# ends degraded.  ``run_study(resume=True)`` preloads it, so a crashed,
# interrupted, or partially-failed run finishes with zero re-simulation
# of the points that already succeeded.  Checkpoints live next to the
# full-study cache entries (same directory, same config hash,
# ``.ckpt.pkl`` suffix) and are deleted once the sweep completes.


def study_checkpoint_path(cache_dir: str, config: ExperimentConfig) -> str:
    return os.path.join(
        cache_dir, f"study-{study_cache_key(config)}.ckpt.pkl"
    )


def save_study_checkpoint(
    config: ExperimentConfig, results: Dict, cache_dir: str
) -> str:
    """Atomically persist the completed slice of one sweep.

    The flush is a read-merge-write under the sidecar lock: whatever a
    concurrent process (another service replica, a parallel CLI run on
    the same cache) already checkpointed for this config is folded in
    before writing, with this caller's points winning ties.  Without the
    merge, last-writer-wins could *regress* a checkpoint — replica A
    flushes 40 points, replica B then replaces them with its own 8.
    """
    os.makedirs(cache_dir, exist_ok=True)
    path = study_checkpoint_path(cache_dir, config)
    tmp = f"{path}.tmp.{os.getpid()}"
    with FileLock(f"{path}.lock"):
        existing = load_study_checkpoint(config, cache_dir) or {}
        merged = {**existing, **dict(results)}
        blob = {
            "schema_version": SCHEMA_VERSION,
            "pickle_layout": PICKLE_LAYOUT,
            "config": config,
            "results": merged,
        }
        try:
            with open(tmp, "wb") as f:
                pickle.dump(blob, f, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return path


def load_study_checkpoint(
    config: ExperimentConfig, cache_dir: str
) -> Optional[Dict]:
    """Completed points of an earlier run, or None on any mismatch.

    Missing files, unreadable pickles, schema or pickle-layout drift,
    and config mismatches all load as None — the sweep simply starts
    from scratch.
    """
    blob = _load_blob(study_checkpoint_path(cache_dir, config))
    if blob is None or blob.get("config") != config:
        return None
    results = blob.get("results")
    if not isinstance(results, dict):
        return None
    return results


def clear_study_checkpoint(config: ExperimentConfig, cache_dir: str) -> None:
    """Remove the checkpoint (the sweep completed; nothing to resume)."""
    path = study_checkpoint_path(cache_dir, config)
    try:
        os.unlink(path)
    except OSError:
        pass


def compare_rows(old: List[Dict], new: List[Dict], rtol: float = 0.02) -> List[str]:
    """Regression check: report rows whose time drifted beyond ``rtol``.

    Returns human-readable difference descriptions (empty = no drift).

    Rows are keyed by (stencil, platform, variant, **strategy**): a
    study that carries several codegen strategies per matrix point
    (tuning sweeps, ablations) compares every row rather than silently
    shadowing all but the last one under a too-coarse key.  Times are
    coerced to floats, so the comparison works on raw
    :func:`load_csv_rows` output and hand-built string rows alike.  A
    zero-time baseline row is *reported*, not skipped: relative drift
    is undefined there, and a baseline of 0 ms is itself a fact the
    regression check must surface.
    """
    def key(row):
        return (
            row["stencil"], row["platform"], row["variant"],
            row.get("strategy", ""),
        )

    old_map = {key(r): r for r in old}
    new_map = {key(r): r for r in new}
    diffs = []
    for k in sorted(set(old_map) | set(new_map)):
        if k not in old_map:
            diffs.append(f"{k}: new result (not in baseline)")
            continue
        if k not in new_map:
            diffs.append(f"{k}: missing from new run")
            continue
        t0 = float(old_map[k]["time_ms"])
        t1 = float(new_map[k]["time_ms"])
        if t0 == 0.0:
            if t1 != 0.0:
                diffs.append(
                    f"{k}: baseline time is 0 ms (relative drift "
                    f"undefined); new time {t1} ms"
                )
            continue
        if abs(t1 - t0) / t0 > rtol:
            diffs.append(f"{k}: time {t0} ms -> {t1} ms")
    return diffs
