"""Checkpoint journal for resumable sweeps.

A sweep's unit of progress is the (workload, processors) *group* — the
granule :func:`repro.experiments.sweep.full_sweep` fans out to worker
processes.  As each group completes, the supervisor appends its records
to a JSONL *shard* file and commits the group to an atomically-replaced
``MANIFEST.json``; a later run with ``resume=True`` replays the
committed groups from the shards and executes only the remainder.
Because the simulation is deterministic and records are serialised
losslessly (floats survive the JSON round trip bit-for-bit), a resumed
sweep's CSV is byte-identical to an uninterrupted run's.

The manifest is *content-keyed*: it stores a fingerprint of the grid
and every record-shaping option (machine spec, workloads, procs,
heuristics, fractions, reference, one flag per opt-in column family and
the harness faults; the engine is hashed as a constant, since the
engines agree exactly).  A checkpoint written under a different grid is
stale — resume ignores it and starts fresh — so shards can never leak
records into a sweep they do not belong to.

Crash safety: shard files and the manifest are written to a
same-directory temporary file and :func:`os.replace`-d into place
(:func:`repro.fileio.atomic_write_text`, the writer every export
shares), and a group enters the manifest only after its shard is fully
on disk.  An interruption at any point leaves either the previous
manifest or the new one — never a torn journal.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import re
from dataclasses import asdict, fields
from typing import Optional, Sequence

from ..fileio import atomic_write_text
from .common import SweepRecord

__all__ = [
    "CheckpointJournal",
    "grid_fingerprint",
    "record_from_json",
    "record_to_json",
]

#: Manifest schema identifier; bump when the journal layout changes
#: (a mismatching schema is treated exactly like a stale fingerprint).
SCHEMA = "repro-checkpoint/1"

MANIFEST_NAME = "MANIFEST.json"


def grid_fingerprint(
    spec,
    workloads: Sequence[str],
    procs: Sequence[int],
    heuristics: Sequence[str],
    fractions: Sequence[float],
    reference: str,
    metrics: bool,
    check: bool,
    analyze: bool,
    engine: str,
    bounds: bool = False,
    harness_faults=None,
) -> str:
    """Content hash of everything that shapes a sweep's records.

    Two sweeps share a checkpoint iff their fingerprints match; ``jobs``
    and the runtime policy are deliberately excluded (they change how
    the grid is executed, never what a cell's record contains).  So is
    ``engine``: the engines agree exactly, so a journal resumes across
    engines.  ``bounds`` shapes records (it fills opt-in columns), and
    ``harness_faults`` (a
    :class:`~repro.experiments.runtime.HarnessFaultSpec` or ``None``)
    shapes them too — an injected fault can turn a group into failure
    rows, which must never be replayed into a fault-free run (nor a
    fault-free journal into a faulted one).
    """
    doc = {
        "schema": SCHEMA,
        "spec": repr(spec),
        "workloads": list(workloads),
        "procs": [int(p) for p in procs],
        "heuristics": list(heuristics),
        "fractions": [float(f) for f in fractions],
        "reference": reference,
        "metrics": bool(metrics),
        "check": bool(check),
        "analyze": bool(analyze),
        # Constants that pin the hashes of existing journals: the
        # engine was hashed as "interpreted", the default before the
        # compiled engine, and a retired engine column was off.
        "engine": "interpreted",
        "engine_stats": False,
        "bounds": bool(bounds),
        "harness_faults": (
            repr(harness_faults) if harness_faults is not None else None
        ),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def record_to_json(rec: SweepRecord) -> dict:
    """Lossless JSON form of one record (``inf`` as the string ``"inf"``,
    matching the CSV convention; ``None`` stays ``null``)."""
    row = asdict(rec)
    for k, v in row.items():
        if isinstance(v, float) and math.isinf(v):
            row[k] = "inf"
    return row


def record_from_json(row: dict) -> SweepRecord:
    """Inverse of :func:`record_to_json`.  An empty field the record no
    longer has (a journal of a default sweep keeps its fingerprint
    across a retired opt-in column) is skipped; a filled one raises."""
    known = {f.name for f in fields(SweepRecord)}
    out = {k: v for k, v in row.items() if k in known or v is not None}
    for k, v in out.items():
        if v == "inf":
            out[k] = float("inf")
    return SweepRecord(**out)


def _shard_name(key: str, p: int) -> str:
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", key)
    return f"{safe}_p{p}.jsonl"


class CheckpointJournal:
    """Append-only journal of completed sweep groups.

    ``start(resume=...)`` either adopts a matching manifest (resume) or
    writes a fresh empty one; ``record_group`` commits one completed
    group; ``completed()`` returns the groups the manifest vouches for.
    """

    def __init__(self, directory: str | os.PathLike, fingerprint: str):
        self.dir = pathlib.Path(directory)
        self.fingerprint = fingerprint
        #: True when ``start(resume=True)`` found a manifest for a
        #: different grid (stale shards were discarded).
        self.stale = False

    @property
    def manifest_path(self) -> pathlib.Path:
        return self.dir / MANIFEST_NAME

    def _load_manifest(self) -> Optional[dict]:
        try:
            doc = json.loads(self.manifest_path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
            return None
        return doc

    def _write_manifest(self, groups: dict) -> None:
        doc = {
            "schema": SCHEMA,
            "fingerprint": self.fingerprint,
            "groups": groups,
        }
        atomic_write_text(
            self.manifest_path, json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )

    def start(self, resume: bool = False) -> None:
        """Initialise the journal directory.

        With ``resume=False`` any previous manifest is replaced by an
        empty one (old shards become unreachable).  With ``resume=True``
        a manifest for the same fingerprint is kept; a stale one (other
        grid, other schema, unreadable) is replaced and ``self.stale``
        records that shards were discarded.
        """
        self.dir.mkdir(parents=True, exist_ok=True)
        current = self._load_manifest()
        if resume and current is not None:
            if current.get("fingerprint") == self.fingerprint:
                return
            self.stale = True
        self._write_manifest({})

    def record_group(self, key: str, p: int, records: Sequence[SweepRecord]) -> None:
        """Commit one completed group: shard first, then the manifest."""
        manifest = self._load_manifest()
        groups = dict(manifest.get("groups", {})) if manifest else {}
        shard = _shard_name(key, p)
        lines = "".join(
            json.dumps(record_to_json(r), sort_keys=True) + "\n" for r in records
        )
        atomic_write_text(self.dir / shard, lines)
        groups[f"{key}@{p}"] = {"shard": shard, "records": len(records)}
        self._write_manifest(groups)

    def completed(self) -> dict[tuple[str, int], list[SweepRecord]]:
        """Groups the manifest vouches for, as ``(workload, procs) ->
        records``.  Shards that are missing or shorter than the manifest
        promises are skipped (their groups simply re-run)."""
        manifest = self._load_manifest()
        if manifest is None or manifest.get("fingerprint") != self.fingerprint:
            return {}
        out: dict[tuple[str, int], list[SweepRecord]] = {}
        for gk, entry in manifest.get("groups", {}).items():
            key, _, p = gk.rpartition("@")
            try:
                text = (self.dir / entry["shard"]).read_text()
                records = [
                    record_from_json(json.loads(line))
                    for line in text.splitlines()
                    if line.strip()
                ]
            except (OSError, TypeError, ValueError):
                continue
            if len(records) != entry.get("records"):
                continue
            out[(key, int(p))] = records
        return out
