"""The one writer for files in the data dir.

``write_file`` replaces a file so that a crash at any point leaves the
old bytes or the new ones at the path, never a mix, a partial file or
nothing. The bytes go to ``<name>.tmp``, created with its final mode,
which is fsynced, renamed over the target, and then the directory is
fsynced so the rename itself survives power loss (Pillai et al., "All
File Systems Are Not Created Equal", OSDI 2014).
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import IoFailure


def write_file(path, data: bytes, mode: int = 0o666) -> None:
    """Durably replace ``path`` with ``data``; the file is created with
    ``mode`` (less the umask). Raises IoFailure."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, mode)
        with open(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(fd)
        os.replace(tmp, path)
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from None
