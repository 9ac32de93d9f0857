"""Atomic, durable publication of whole files — the package's only one.

:func:`publish` creates ``<name>.tmp.<random>`` with ``mkstemp`` in
the destination's directory, writes, flushes and fsyncs it (exactly
once), then renames it onto the destination with ``os.replace``: a
crash leaves the old file or the new one, never a torn mix.  On any
exception the temp file is unlinked and the exception re-raised.  Only
a SIGKILL mid-publish leaves a temp file; :func:`sweep_temps` reclaims
those.  The directory is not fsync'd.  Standard library only, so every
layer can use it.
"""

from __future__ import annotations

import os
import tempfile
from typing import Callable, Optional

__all__ = ["TEMP_MARKER", "publish", "sweep_temps", "temp_target"]

#: Separates the destination name from mkstemp's random suffix.
TEMP_MARKER = ".tmp."


def publish(path: str, data: bytes,
            phase_hook: Optional[Callable[[str], None]] = None) -> None:
    """Atomically replace ``path`` with ``data``, durably.

    ``phase_hook`` is the crash-test seam, called with ``"write"``
    (before the temp file exists), ``"fsync"`` and ``"replace"`` as
    each phase begins.
    """
    hook = phase_hook or (lambda phase: None)
    hook("write")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + TEMP_MARKER)
    try:
        with open(fd, "wb") as stream:
            stream.write(data)
            stream.flush()
            hook("fsync")
            os.fsync(stream.fileno())
        hook("replace")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def temp_target(name: str) -> Optional[str]:
    """Destination name of the temp file ``name``; ``None`` for any
    name :func:`publish` cannot have created."""
    target, marker, suffix = name.rpartition(TEMP_MARKER)
    if marker and target and suffix and "." not in suffix:
        return target
    return None


def sweep_temps(directory: str, owned: Callable[[str], bool]) -> int:
    """Delete the temp files whose destination name is ``owned``;
    returns the bytes reclaimed.

    Only safe while the caller excludes every concurrent publisher of
    those destinations (an in-flight temp file looks like debris).
    """
    reclaimed = 0
    for name in os.listdir(directory):
        target = temp_target(name)
        if target is None or not owned(target):
            continue
        path = os.path.join(directory, name)
        try:
            size = os.path.getsize(path)
            os.unlink(path)
        except OSError:  # pragma: no cover - racing cleanup is fine
            continue
        reclaimed += size
    return reclaimed
