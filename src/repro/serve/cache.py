"""The resident panel LRU: byte-budgeted, mmap-backed, counted.

:class:`ResidentPanelCache` is the serve daemon's memory for campaign
npz panels.  Campaigns constructed with ``panel_cache=...`` route their
cache loads through :meth:`load`, which maps the npz panels read-only
via :meth:`PopulationResults.load_npz(mmap_mode="r")
<repro.sim.results.PopulationResults.load_npz>` instead of eagerly
materialising them, and memoises the loaded object keyed by the file's
identity ``(path, mtime_ns, size)``.  After a campaign saves, it
publishes the live results object back via :meth:`store` under the
fresh file identity, so the next open is a hit without touching disk.

Memory behaviour: entries are charged their *virtual* panel size
(:attr:`~repro.sim.results.PopulationResults.nbytes`).  For mmap'd
panels that is address space, not resident memory -- the OS pages IPC
blocks in on demand and can drop clean pages under pressure -- so the
byte budget bounds the worst case (every panel fully touched), while
the typical resident cost of a served query is only the rows it
actually reads.
Eviction pops least-recently-used entries until the budget holds,
always keeping the newest entry even when it alone exceeds the budget
(a cache that refused the working set would just thrash).  Evicted
panels stay valid for campaigns still holding them -- eviction only
drops the cache's reference; consistency is preserved because saves
are atomic replaces, so a shared mmap keeps the replaced inode's
consistent snapshot alive until the last reference drops.

Counters (``hits`` / ``misses`` / ``evictions``) feed the ``stats``
query and the ``serve`` bench suite.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple, Union

from repro.sim.results import PopulationResults

#: Default byte budget: generous for the full-profile working set
#: (a 10 000 x 2 x 8 float64 panel is ~1.3 MB; the budget is sized for
#: many resident campaigns, not one).
DEFAULT_BUDGET_BYTES = 512 * 1024 * 1024


@dataclass
class _Entry:
    ident: Tuple[int, int]
    results: PopulationResults
    nbytes: int


class ResidentPanelCache:
    """LRU of loaded campaign panels, keyed by file identity.

    Args:
        budget_bytes: total virtual panel bytes to keep resident.
    """

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES) -> None:
        if budget_bytes < 1:
            raise ValueError("budget_bytes must be >= 1")
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(entry.nbytes for entry in self._entries.values())

    @staticmethod
    def _ident(path: Path) -> Tuple[int, int]:
        stat = path.stat()
        return (stat.st_mtime_ns, stat.st_size)

    def load(self, path: Union[str, Path]) -> PopulationResults:
        """The panels at ``path``, from cache or a fresh mmap load.

        A cached entry is served only while the file identity matches;
        a replaced file (new mtime/size) is a miss and reloads.  Raises
        like :meth:`PopulationResults.load_npz` on unreadable files
        (campaign loading treats that as a cache miss).
        """
        path = Path(path)
        ident = self._ident(path)
        key = str(path)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.ident == ident:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry.results
        # Loaded outside the lock: a slow disk read must not stall
        # hits on other paths.  Two threads racing the same cold path
        # both load; the later insert wins (harmless -- same bytes).
        results = PopulationResults.load_npz(path, mmap_mode="r")
        with self._lock:
            self.misses += 1
            self._insert(key, ident, results)
        return results

    def store(self, path: Union[str, Path],
              results: PopulationResults) -> None:
        """Publish a live results object under ``path``'s identity.

        Called by :meth:`Campaign.save <repro.api.engine.Campaign.
        save>` right after it atomically replaced the npz, so the cache
        entry for the new file identity is the already-materialised
        object the campaign will keep mutating -- the next session that
        opens this cache key gets it without a disk load.
        """
        path = Path(path)
        try:
            ident = self._ident(path)
        except OSError:        # pragma: no cover - save/stat race
            return
        with self._lock:
            self._insert(str(path), ident, results)

    def _insert(self, key: str, ident: Tuple[int, int],
                results: PopulationResults) -> None:
        self._entries.pop(key, None)
        self._entries[key] = _Entry(ident, results, results.nbytes)
        total = sum(entry.nbytes for entry in self._entries.values())
        while total > self.budget_bytes and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            total -= evicted.nbytes
            self.evictions += 1

    def stats(self) -> Dict[str, int]:
        """Counters and occupancy, for ``stats`` queries and benches."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": sum(e.nbytes for e in self._entries.values()),
                "budget_bytes": self.budget_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
