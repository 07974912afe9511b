"""Atomic file writes: a temp file in the target's directory plus one rename.

Standard library only, so the CLI can use it before numpy is imported.
"""

from __future__ import annotations

import os
import tempfile


def write_atomic(path, data):
    """Write ``data`` (str or bytes) to ``path`` so a reader never sees a
    partial file; the temp file is removed if anything fails."""
    dirpath, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dirpath, prefix=f".{name}-")
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
