"""Output files that land whole or not at all."""
from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Open a temporary file next to ``path`` for writing, and rename it over
    ``path`` when the block ends. If the block raises, the temporary file is
    removed, and a file already at ``path`` stays as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
