"""The checkpoint container: checksummed canonical JSON, written atomically.

A checkpoint is a plain-data *payload* (the search layer owns its
schema — see :mod:`repro.incremental.search`) wrapped in a container
that makes damage detectable::

    {"schema": 1, "crc": <crc32 of the canonical payload bytes>,
     "payload": {...}}

Writes are atomic (:func:`repro.robust.atomic.atomic_write_text`), so
a kill mid-save leaves the previous checkpoint intact.  Reads verify
the container shape, schema and CRC and raise :class:`CheckpointError`
on any mismatch — a torn or corrupted file is *rejected*, never half
loaded (``tests/test_robust_checkpoint.py`` drives this with the
``tear-checkpoint`` fault).

Byte-stability: the container serialisation is canonical (sorted keys,
fixed separators, trailing newline), and payload floats round-trip
exactly through JSON (``repr`` shortest-round-trip), so saving and
reloading a search state loses nothing.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, Optional

from . import faults as _faults
from .atomic import atomic_write_text

__all__ = [
    "CHECKPOINT_SCHEMA",
    "DEFAULT_CHECKPOINT_EVERY",
    "CheckpointError",
    "dumps_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_SCHEMA = 1

#: Default ``--checkpoint-every`` cadence, in accepted moves.  Snapshots
#: happen at accept boundaries (the one point where both caches are
#: fully flushed, so no dirty-set state needs capturing); every 32
#: accepts keeps the overhead well under the 5% floor
#: ``benchmarks/bench_checkpoint_overhead.py`` holds.
DEFAULT_CHECKPOINT_EVERY = 32


class CheckpointError(ValueError):
    """A checkpoint file that must not be trusted (torn, foreign, stale)."""


def _canonical_payload(payload: Dict[str, object]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def dumps_checkpoint(payload: Dict[str, object]) -> str:
    """Serialise ``payload`` into the checksummed container form.

    The container is written compactly around the very payload text
    the CRC covers (keys in sorted order: ``crc``, ``payload``,
    ``schema``), so a save encodes the payload once, on json's C
    encoder; an indented dump would re-encode it in pure Python and
    cost most of a snapshot.
    """
    body = _canonical_payload(payload)
    crc = zlib.crc32(body.encode("utf-8"))
    return (f'{{"crc":{crc},"payload":{body},'
            f'"schema":{CHECKPOINT_SCHEMA}}}\n')


def save_checkpoint(path: str, payload: Dict[str, object]) -> None:
    """Atomically write ``payload`` as a checkpoint at ``path``.

    With the ``tear-checkpoint=N`` fault armed this instead simulates a
    non-atomic writer dying mid-write — the first N container bytes
    land on the final path and :class:`~repro.robust.faults.FaultInjected`
    is raised — which is exactly the file :func:`load_checkpoint` must
    reject.
    """
    text = dumps_checkpoint(payload)
    torn = _faults.torn_bytes("checkpoint.write")
    if torn is not None:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(text[:torn])
        raise _faults.FaultInjected(
            f"injected fault: checkpoint torn at byte {torn}"
        )
    atomic_write_text(path, text)


def load_checkpoint(path: str,
                    expect_kind: Optional[str] = None) -> Dict[str, object]:
    """Load and verify a checkpoint; return its payload.

    Raises :class:`CheckpointError` for anything that is not a whole,
    schema-matched, checksum-clean checkpoint — including a payload
    whose ``kind`` differs from ``expect_kind`` (resuming a portfolio
    run from a single-search checkpoint, say).  ``OSError`` (missing
    file, permissions) passes through untouched.
    """
    with open(path) as handle:
        text = handle.read()
    try:
        container = json.loads(text)
    except json.JSONDecodeError as error:
        raise CheckpointError(
            f"{path}: not a whole checkpoint (torn write?): {error}"
        ) from None
    if not isinstance(container, dict) or "payload" not in container:
        raise CheckpointError(f"{path}: not a checkpoint container")
    schema = container.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path}: unsupported checkpoint schema {schema!r} "
            f"(expected {CHECKPOINT_SCHEMA})"
        )
    payload = container["payload"]
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: checkpoint payload is not an object")
    crc = zlib.crc32(_canonical_payload(payload).encode("utf-8"))
    if crc != container.get("crc"):
        raise CheckpointError(
            f"{path}: checkpoint checksum mismatch (corrupted file)"
        )
    if expect_kind is not None and payload.get("kind") != expect_kind:
        raise CheckpointError(
            f"{path}: checkpoint kind {payload.get('kind')!r} does not "
            f"match this run (expected {expect_kind!r})"
        )
    return payload
