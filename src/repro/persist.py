"""Durable on-disk artifacts: atomic replace + advisory-locked merges.

Every artifact this package writes (trace libraries, sweep results,
Chrome traces, metrics timelines, flight-recorder dumps) used to go
through a bare ``Path.write_text`` — a crash mid-write truncates the
file, and two processes sharing one path clobber each other's bytes.
Both failure modes matter now that the trace library is a *wire format*
(regions gossip it between each other) and sweep workers share output
directories.

:func:`atomic_write_text` gives crash safety: the text lands in a
temporary file in the destination directory (same filesystem, so the
final ``os.replace`` is atomic), is fsync'd, and only then renamed over
the target. A reader therefore always sees either the complete old
bytes or the complete new bytes, never a torn mix; a crash mid-write
leaves the previous artifact intact plus (at worst) one ``*.tmp``
orphan.

:func:`locked` adds cross-process mutual exclusion for read-modify-write
updates (the trace library's merge-on-save, the benchmark recorder's
scenario merge). The lock lives in a *sidecar* file — flocking the
target itself would be useless, since ``os.replace`` swaps the inode the
lock is attached to. On platforms without ``fcntl`` the lock degrades to
a no-op (single-process correctness is unaffected).
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: best-effort locking
    fcntl = None


#: Characters per ``write`` call of :func:`atomic_write_text`: the text
#: is encoded one slice at a time, so no second full copy is ever held.
_WRITE_SLICE = 1 << 20


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically; returns the path.

    The bytes are staged in a temporary file next to the target and
    renamed over it with ``os.replace``, so a crash at any instant
    leaves either the old artifact or the new one — never a truncated
    hybrid. On failure the temporary file is removed. The text goes
    out in :data:`_WRITE_SLICE`-character slices, so a large artifact
    (a full Chrome trace) is never held twice, once as ``str`` and once
    encoded.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for start in range(0, len(text), _WRITE_SLICE):
                handle.write(text[start:start + _WRITE_SLICE])
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


@contextmanager
def locked(path: str | Path) -> Iterator[Path]:
    """Exclusive advisory lock guarding updates of artifact ``path``.

    Locks a ``<name>.lock`` sidecar (never the artifact itself — an
    atomic replace swaps the artifact's inode, which would orphan a
    lock held on it) for the duration of the ``with`` block. Reentrant
    use in one process is *not* supported; the lock serializes
    processes, not threads.
    """
    path = Path(path)
    lock_path = path.with_name(path.name + ".lock")
    with open(lock_path, "a+", encoding="utf-8") as handle:
        if fcntl is not None:
            fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield path
        finally:
            if fcntl is not None:
                fcntl.flock(handle, fcntl.LOCK_UN)


def atomic_write_json(path: str | Path, payload, **dumps_kwargs) -> Path:
    """``json.dumps`` + :func:`atomic_write_text` in one call."""
    return atomic_write_text(path, json.dumps(payload, **dumps_kwargs))
