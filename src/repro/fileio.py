"""Crash-safe artifact writes.

Every file the package exports — sweep CSVs, checkpoint journals,
metrics JSON, Chrome traces, HTML reports, SVG charts, analyzer
reports — goes through :func:`atomic_write_text`.  A leaf module (it
imports nothing from the package) so the static passes of
:mod:`repro.core` can use it as freely as the exporters.
"""

from __future__ import annotations

import os
import pathlib

__all__ = ["atomic_write_text"]


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` crash-safely.

    The content goes to a uniquely named temporary file in the *same*
    directory (so the final rename never crosses filesystems) and is
    fsync-ed before an atomic :func:`os.replace` into place: readers see
    either the old file or the complete new one, never a truncated
    write.  The file gets the mode ``open(path, "w")`` would give it: a
    new file ``0o666`` under the umask, a replaced one its old mode.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            try:
                os.fchmod(fh.fileno(), os.stat(path).st_mode & 0o7777)
            except FileNotFoundError:
                pass
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
