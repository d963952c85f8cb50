"""Atomic file writes: the temp + ``os.replace`` idiom, shared.

Every persistent artefact in the project -- campaign npz caches,
model-store entries, bench trajectories -- must be
written atomically so that concurrent readers (and the planned
estimation daemon's resident panels) never observe a torn file.  POSIX
``rename``/``replace`` within one directory is atomic, so the idiom is:
write the full payload to a temp file *next to* the final path, then
``os.replace`` it into place.  The temp name carries the writer's pid
so parallel campaigns sharing a directory never collide on it.

This module is the one place that idiom lives; the ``REP005``
non-atomic-write lint rule (:mod:`repro.analysis.rules`) fails any
write to a final path that bypasses it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Optional, Union

try:                            # POSIX advisory locks (absent on some hosts)
    import fcntl
except ImportError:             # pragma: no cover - non-POSIX hosts
    fcntl = None


@contextmanager
def atomic_open(path: Union[str, Path], mode: str = "wb") -> Iterator[IO]:
    """Open a temp file that replaces ``path`` on a clean exit.

    The parent directory is created if needed.  On an exception the
    temp file is removed and the final path is left untouched; on
    success the replace is atomic, so readers see either the old
    content or the complete new content, never a prefix.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # repro: allow[REP006] the pid names only the temp file, to keep
    # parallel writers from colliding; os.replace strips it from the
    # final path, so no persistent name or key ever contains it.
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, mode) as handle:
            yield handle
        os.replace(temporary, path)
    finally:
        if temporary.exists():      # pragma: no cover - failed replace
            temporary.unlink()


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Atomically replace ``path`` with ``data``."""
    with atomic_open(path, "wb") as handle:
        handle.write(data)


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Atomically replace ``path`` with UTF-8 ``text``."""
    atomic_write_bytes(path, text.encode("utf-8"))


class FileLock:
    """Advisory writer mutual exclusion over one lock file.

    Atomic replaces already guarantee readers never observe a torn
    file; this lock adds the *writer* half of the concurrency story:
    two processes that each read-modify-write a shared artefact (e.g.
    campaigns filling one :class:`~repro.sim.modelstore.ModelStore`)
    serialise their critical sections instead of interleaving them.

    Built on ``fcntl.flock`` (advisory, per open file description, so
    the lock dies with its holder -- no stale-lock recovery needed).
    On hosts without ``fcntl`` the lock degrades to a no-op, which
    keeps single-writer workflows working and merely loses the
    multi-writer guarantee there.

    Usable as a context manager and re-entrant within one instance::

        with FileLock(store_dir / ".lock"):
            ...read, decide, write...
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: Optional[IO] = None
        self._depth = 0

    @property
    def held(self) -> bool:
        """Whether this instance currently holds the lock."""
        return self._depth > 0

    def acquire(self) -> None:
        """Block until the lock is held (re-entrant per instance)."""
        if self._depth == 0 and fcntl is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # The lock file itself is never replaced: only its file
            # description carries the flock, its content is irrelevant.
            # repro: allow[REP005] flock needs a stable inode, no content
            self._handle = open(self.path, "a+b")
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        self._depth += 1

    def release(self) -> None:
        """Release one acquisition; the last one drops the flock."""
        if self._depth == 0:
            raise RuntimeError("lock released more times than acquired")
        self._depth -= 1
        if self._depth == 0 and self._handle is not None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
