"""Per-(policy, workload) IPC storage as append-only row blocks.

A :class:`PopulationResults` holds everything the statistics layer
needs about one simulation campaign: per-core IPCs for every workload
under every policy, plus single-thread reference IPCs for the speedup
metrics.

One write path feeds it: :meth:`PopulationResults.record_batch` appends
a whole N x K panel (workload tuple + float64 matrix) as one block, and
a per-policy workload -> (block, row) map finds any row.  Blocks are
never rewritten.  :meth:`columnar_panel` serves them straight to
:class:`~repro.core.columnar.IpcMatrix` consumers (a single block in
row order is served as is, with zero copies), which is what makes
10^6-workload panels practical.  The mapping reads (:meth:`ipcs`,
:meth:`ipc_table`, :meth:`to_json`) are conversions: each builds new
Python objects from the blocks and leaves the store as it was.

Persistence is one NumPy ``.npz`` per campaign (:meth:`save_npz`/
:meth:`load_npz`), which loads panels as matrices directly -- no JSON
parsing, no mapping rebuild -- and can serve them memory-mapped.
:meth:`to_json`/:meth:`from_json` remain the readable interchange form
(and the bit-identity oracle of the tests); :meth:`load` reads the
legacy JSON cache files of older releases, which campaigns import once
and rewrite as npz.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.workload import Workload
from repro.ioutil import atomic_open

IpcVector = List[float]

#: One streamed batch: row-ordered workloads plus their N x K IPCs.
_Block = Tuple[Tuple[Workload, ...], np.ndarray]


class PopulationResults:
    """IPC results of one campaign (one simulator, one core count).

    Args:
        cores: number of cores K.
        simulator: label of the producing simulator ("detailed",
            "badco", ...), recorded for provenance.
    """

    def __init__(self, cores: int, simulator: str) -> None:
        self.cores = cores
        self.simulator = simulator
        #: Per policy: the recorded blocks, in arrival order.
        self._blocks: Dict[str, List[_Block]] = {}
        #: Per policy: workload -> (block number, row).
        self._block_rows: Dict[str, Dict[Workload, Tuple[int, int]]] = {}
        self.reference: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Writing

    def record_batch(self, policy: str, workloads: Sequence[Workload],
                     ipcs: np.ndarray) -> None:
        """Append one panel as a block, without a per-workload round trip.

        Args:
            policy: the policy the panel was simulated under.
            workloads: row order of the panel.
            ipcs: the len(workloads) x K IPC matrix.
        """
        workloads = tuple(workloads)
        ipcs = np.asarray(ipcs, dtype=np.float64)
        if ipcs.shape != (len(workloads), self.cores):
            raise ValueError(
                f"expected a {len(workloads)} x {self.cores} panel, "
                f"got {ipcs.shape}")
        known = self._block_rows.get(policy, {})
        for workload in workloads:
            if workload.k != self.cores:
                raise ValueError(
                    f"{workload}: occupies {workload.k} cores, "
                    f"expected {self.cores}")
            if workload in known:
                raise ValueError(f"{policy}: {workload} already recorded")
        rows = self._block_rows.setdefault(policy, {})
        blocks = self._blocks.setdefault(policy, [])
        block_number = len(blocks)
        blocks.append((workloads, ipcs))
        for row, workload in enumerate(workloads):
            rows[workload] = (block_number, row)

    def record_reference(self, benchmark: str, ipc: float) -> None:
        self.reference[benchmark] = ipc

    # ------------------------------------------------------------------
    # Reading

    def _common(self, policies: Sequence[str]) -> List[Workload]:
        sets = [set(self._block_rows[p]) for p in policies]
        return sorted(set.intersection(*sets)) if sets else []

    @property
    def policies(self) -> List[str]:
        return sorted(self._blocks)

    def workloads(self, policy: str) -> List[Workload]:
        return sorted(self._block_rows[policy])

    def common_workloads(self) -> List[Workload]:
        """Workloads simulated under *every* recorded policy."""
        return self._common(self.policies)

    def ipcs(self, policy: str, workload: Workload) -> IpcVector:
        block, row = self._block_rows[policy][workload]
        return self._blocks[policy][block][1][row].tolist()

    def ipc_table(self, policy: str) -> Dict[Workload, IpcVector]:
        """A new per-workload IPC dict of one policy, in record order.

        A conversion, built afresh on each call; array consumers should
        prefer :meth:`columnar_panel`, which serves the blocks as they
        are.
        """
        return dict(self._iter_rows(policy))

    def has(self, policy: str, workload: Workload) -> bool:
        return workload in self._block_rows.get(policy, ())

    @property
    def nbytes(self) -> int:
        """Virtual bytes of the IPC blocks plus the reference table.

        Memory-mapped blocks count their mapped size, not the pages
        actually resident.
        """
        return (sum(int(matrix.nbytes) for blocks in self._blocks.values()
                    for _, matrix in blocks)
                + 8 * len(self.reference))

    def _policy_matrix(self, policy: str, index) -> np.ndarray:
        """The policy's panel aligned to ``index`` rows."""
        rows = self._block_rows[policy]
        missing = sum(1 for w in index.workloads if w not in rows)
        if missing:
            raise ValueError(
                f"{policy}: {missing} workloads lack IPCs")
        blocks = self._blocks[policy]
        if len(blocks) == 1 and blocks[0][0] == index.workloads:
            return blocks[0][1]          # the common case: zero copies
        stacked = np.concatenate([matrix for _, matrix in blocks], axis=0)
        offsets: Dict[Workload, int] = {}
        position = 0
        for workloads, matrix in blocks:
            for row, workload in enumerate(workloads):
                offsets[workload] = position + row
            position += matrix.shape[0]
        take = np.fromiter((offsets[w] for w in index.workloads),
                           dtype=np.int64, count=len(index.workloads))
        return stacked[take]

    def columnar_panel(self, policies: Optional[Sequence[str]] = None,
                       workloads: Optional[Sequence[Workload]] = None):
        """Index + per-policy IPC matrices for the columnar layer.

        One validated conversion feeding every downstream array
        computation (deltas, studies, estimators), instead of each
        consumer re-walking per-workload tables: the blocks are served
        as matrices directly.

        Args:
            policies: policies to include (default: all recorded).
            workloads: row order (default: the workloads common to the
                selected policies, sorted).  A
                :class:`~repro.core.population.WorkloadPopulation` is
                accepted directly and indexed zero-copy over its code
                matrix (no tuple round trip).

        Returns:
            ``(index, matrices)``: the
            :class:`~repro.core.columnar.WorkloadIndex` and a dict of
            policy name to :class:`~repro.core.columnar.IpcMatrix`.
        """
        from repro.core.columnar import IpcMatrix, WorkloadIndex

        chosen = list(policies) if policies is not None else self.policies
        if workloads is None:
            workloads = self._common(chosen)
        if hasattr(workloads, "code_matrix"):    # a WorkloadPopulation
            index = workloads.index
        else:
            index = WorkloadIndex(tuple(workloads))
        matrices = {policy: IpcMatrix(index,
                                      self._policy_matrix(policy, index))
                    for policy in chosen}
        return index, matrices

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._block_rows.values())

    # ------------------------------------------------------------------
    # Persistence

    def _iter_rows(self, policy: str):
        """(workload, ipcs-list) pairs of one policy, in record order."""
        for workloads, matrix in self._blocks[policy]:
            yield from zip(workloads, matrix.tolist())

    def to_json(self) -> str:
        payload = {
            "cores": self.cores,
            "simulator": self.simulator,
            "reference": self.reference,
            "ipcs": {
                policy: {w.key(): v for w, v in self._iter_rows(policy)}
                for policy in self.policies
            },
        }
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "PopulationResults":
        """Inverse of :meth:`to_json`: one block per non-empty policy."""
        payload = json.loads(text)
        results = PopulationResults(payload["cores"], payload["simulator"])
        results.reference = dict(payload["reference"])
        for policy, table in payload["ipcs"].items():
            if table:
                results.record_batch(
                    policy, [Workload.from_key(key) for key in table],
                    list(table.values()))
        return results

    @staticmethod
    def load(path: Path) -> "PopulationResults":
        """Read a legacy JSON cache file (the one-way import source)."""
        return PopulationResults.from_json(Path(path).read_text())

    def save_npz(self, path: Path) -> None:
        """Persist as NumPy arrays (the fast cache format).

        Per policy: one workload-key string array plus the matching
        N x K float64 panel.  Loads reconstruct via
        :meth:`record_batch`, so a reloaded population keeps the
        columnar fast path -- no mapping rebuild.

        Uncompressed: float64 IPC panels barely deflate, and only
        ``ZIP_STORED`` members can be served by :meth:`load_npz`'s
        ``mmap_mode`` path (the daemon's resident panels map the cache
        file instead of materialising it).
        """
        arrays: Dict[str, np.ndarray] = {
            "cores": np.array(self.cores, dtype=np.int64),
            "simulator": np.array(self.simulator),
            "reference_names": np.array(sorted(self.reference), dtype=str),
            "reference_values": np.array(
                [self.reference[b] for b in sorted(self.reference)],
                dtype=np.float64),
            "policy_names": np.array(self.policies, dtype=str),
        }
        for number, policy in enumerate(self.policies):
            blocks = self._blocks[policy]
            keys = [w.key() for workloads, _ in blocks for w in workloads]
            panel = (blocks[0][1] if len(blocks) == 1 else
                     np.concatenate([m for _, m in blocks], axis=0))
            arrays[f"workloads_{number}"] = np.array(keys, dtype=str)
            arrays[f"ipcs_{number}"] = panel
        with atomic_open(path, "wb") as handle:
            np.savez(handle, **arrays)

    @staticmethod
    def load_npz(path: Path,
                 mmap_mode: Optional[str] = None) -> "PopulationResults":
        """Inverse of :meth:`save_npz`; panels stay columnar.

        Args:
            path: the ``.npz`` file to read.
            mmap_mode: if ``"r"``, IPC panels stored uncompressed in
                the zip are served as read-only :class:`numpy.memmap`
                views over the cache file instead of being read into
                memory -- the ``repro serve`` daemon's resident-panel
                path.  Pages are faulted in on first touch and shared
                between processes mapping the same file; a concurrent
                writer that atomically replaces the cache file leaves
                existing mappings on the old inode, so a loaded
                results object is always an internally consistent
                snapshot.  Compressed members (caches written by
                older releases) and the small metadata arrays fall back
                to an eager read.

        Raises:
            zipfile.BadZipFile, ValueError, KeyError, OSError, EOFError:
                the file is not a readable panel archive (torn, foreign
                or bit-flipped); campaigns log it and treat it as a
                cache miss.
        """
        mapped: Dict[str, np.ndarray] = {}
        if mmap_mode is not None:
            mapped = _mmap_npz_members(path, prefix="ipcs_")
        with np.load(path, allow_pickle=False) as data:
            results = PopulationResults(int(data["cores"]),
                                        str(data["simulator"]))
            names = data["reference_names"]
            values = data["reference_values"]
            for name, value in zip(names.tolist(), values.tolist()):
                results.reference[str(name)] = value
            for number, policy in enumerate(data["policy_names"].tolist()):
                keys = data[f"workloads_{number}"].tolist()
                panel = mapped.get(f"ipcs_{number}")
                if panel is None:
                    panel = data[f"ipcs_{number}"]
                workloads = [Workload.from_key(str(k)) for k in keys]
                results.record_batch(str(policy), workloads, panel)
        return results

    def __repr__(self) -> str:
        return (f"PopulationResults(cores={self.cores}, "
                f"simulator={self.simulator!r}, policies={self.policies}, "
                f"entries={len(self)})")


def _mmap_npz_members(path: Path, prefix: str) -> Dict[str, np.ndarray]:
    """Read-only memmaps of the uncompressed ``prefix*`` npz members.

    A ``ZIP_STORED`` member of an npz archive is its ``.npy`` payload
    byte for byte, so the array data can be mapped in place: walk the
    member's local file header (30 fixed bytes + name + extra field --
    read from the *local* record, whose extra field may differ from the
    central directory's), parse the npy header right behind it, and
    :class:`numpy.memmap` the payload at the resulting offset.

    Each member's bytes are first checked against the CRC-32 of the zip
    directory (read through the file, never through the map), so a
    flipped bit is not served.  Members that fail that check, are
    compressed, object-typed, or oddly shaped are simply skipped (the
    caller falls back to the eager ``np.load`` read, which raises on a
    bad CRC), as is the whole archive on any parse error -- mmap is a
    fast path, never a correctness dependency.
    """
    import zipfile

    from numpy.lib import format as npy_format

    path = Path(path)
    members: Dict[str, np.ndarray] = {}
    try:
        with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
            for info in archive.infolist():
                name = info.filename
                if not (name.startswith(prefix) and name.endswith(".npy")):
                    continue
                if info.compress_type != zipfile.ZIP_STORED:
                    continue
                raw.seek(info.header_offset)
                header = raw.read(30)
                if len(header) != 30 or header[:4] != b"PK\x03\x04":
                    continue
                name_length = int.from_bytes(header[26:28], "little")
                extra_length = int.from_bytes(header[28:30], "little")
                start = info.header_offset + 30 + name_length + extra_length
                if _stored_crc32(raw, start, info.compress_size) != info.CRC:
                    continue
                raw.seek(start)
                version = npy_format.read_magic(raw)
                if version == (1, 0):
                    shape, fortran, dtype = \
                        npy_format.read_array_header_1_0(raw)
                elif version == (2, 0):
                    shape, fortran, dtype = \
                        npy_format.read_array_header_2_0(raw)
                else:
                    continue
                if dtype.hasobject:
                    continue
                members[name[: -len(".npy")]] = np.memmap(
                    path, dtype=dtype, mode="r", offset=raw.tell(),
                    shape=shape, order="F" if fortran else "C")
    except (OSError, ValueError, zipfile.BadZipFile):
        return {}
    return members


#: Read size of the CRC check: bounds its memory on large panels.
_CRC_CHUNK_BYTES = 1 << 20


def _stored_crc32(raw, start: int, size: int) -> int:
    """CRC-32 of ``size`` bytes of ``raw`` from ``start``, chunk by chunk."""
    raw.seek(start)
    crc = 0
    while size > 0:
        chunk = raw.read(min(size, _CRC_CHUNK_BYTES))
        if not chunk:
            break
        crc = zlib.crc32(chunk, crc)
        size -= len(chunk)
    return crc
