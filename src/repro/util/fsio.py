"""Durable file I/O primitives: fsync-backed atomic writes.

``os.replace`` makes a write *atomic* (readers see the old file or the
new one, never a mix) but not *durable*: after a crash the filesystem
may replay the rename without the data, surfacing an empty or truncated
committed file.  Every commit point in the runtime -- IFile segments, a
recoverable wave's result files, job manifests --
goes through these helpers so the rename target is valid even if the
host dies mid-write:

1. write the payload to a sibling temp file,
2. ``fsync`` the temp file (data hits the platter before the rename),
3. ``os.replace`` onto the final name,
4. ``fsync`` the containing directory (the rename itself is durable).
"""

from __future__ import annotations

import os

__all__ = ["fsync_file", "fsync_dir", "atomic_write_bytes", "replace_durably"]


def fsync_file(fh) -> None:
    """Flush and fsync an open file object."""
    fh.flush()
    os.fsync(fh.fileno())


def fsync_dir(path: str) -> None:
    """fsync a directory so a rename inside it survives a crash.

    Best-effort: some filesystems refuse O_RDONLY opens of directories;
    a failure to fsync the directory never breaks the write itself.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystem
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - exotic filesystem
        pass
    finally:
        os.close(fd)


def replace_durably(tmp_path: str, final_path: str) -> None:
    """``os.replace`` plus a directory fsync of the rename target."""
    os.replace(tmp_path, final_path)
    fsync_dir(os.path.dirname(final_path) or ".")


def atomic_write_bytes(path: str, blob: bytes) -> None:
    """Durably commit ``blob`` at ``path`` (tmp + fsync + rename)."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fsync_file(fh)
    replace_durably(tmp, path)
