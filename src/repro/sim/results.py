"""Per-(policy, workload) IPC storage, mapping- and column-oriented.

A :class:`PopulationResults` holds everything the statistics layer
needs about one simulation campaign: per-core IPCs for every workload
under every policy, plus single-thread reference IPCs for the speedup
metrics.

Two write paths feed it:

- :meth:`PopulationResults.record` -- one workload at a time, the
  event-driven simulators' path (a ``Mapping[Workload, List[float]]``
  per policy);
- :meth:`PopulationResults.record_batch` -- whole N x K panels from
  batch-capable backends.  Batches are kept *columnar* (workload tuple
  + float64 matrix blocks); :meth:`columnar_panel` serves them straight
  to :class:`~repro.core.columnar.IpcMatrix` consumers without ever
  building the per-workload dict, which is what makes 10^6-workload
  panels practical.  Legacy dict reads (:meth:`ipc_table`,
  :meth:`to_json`) materialise the blocks on first use.

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
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
        self._ipcs: Dict[str, Dict[Workload, IpcVector]] = {}
        self._blocks: Dict[str, List[_Block]] = {}
        #: Per policy: workload -> (block number, row) for streamed data.
        self._block_rows: Dict[str, Dict[Workload, Tuple[int, int]]] = {}
        self.reference: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Writing

    def record(self, policy: str, workload: Workload,
               ipcs: Sequence[float]) -> None:
        if len(ipcs) != workload.k:
            raise ValueError(
                f"{workload}: expected {workload.k} IPCs, got {len(ipcs)}")
        if workload in self._block_rows.get(policy, ()):
            # Overwriting a streamed row: fold the blocks into the dict
            # first so last-write-wins holds (a later _materialize must
            # not revert this record to the stale block value).
            self._materialize(policy)
        self._ipcs.setdefault(policy, {})[workload] = list(ipcs)

    def record_batch(self, policy: str, workloads: Sequence[Workload],
                     ipcs: np.ndarray) -> None:
        """Stream one batch panel in, without a per-workload round trip.

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
        rows = self._block_rows.setdefault(policy, {})
        table = self._ipcs.get(policy, {})
        for workload in workloads:
            if workload.k != self.cores:
                raise ValueError(
                    f"{workload}: occupies {workload.k} cores, "
                    f"expected {self.cores}")
            if workload in rows or workload in table:
                raise ValueError(f"{policy}: {workload} already recorded")
        blocks = self._blocks.setdefault(policy, [])
        block_number = len(blocks)
        blocks.append((workloads, ipcs))
        for row, workload in enumerate(workloads):
            rows[workload] = (block_number, row)

    def record_reference(self, benchmark: str, ipc: float) -> None:
        self.reference[benchmark] = ipc

    # ------------------------------------------------------------------
    # Reading

    def _materialize(self, policy: str) -> Dict[Workload, IpcVector]:
        """Fold a policy's streamed blocks into the legacy dict view."""
        blocks = self._blocks.pop(policy, None)
        table = self._ipcs.setdefault(policy, {})
        if blocks:
            for workloads, matrix in blocks:
                values = matrix.tolist()
                for workload, row in zip(workloads, values):
                    table[workload] = row
            self._block_rows.pop(policy, None)
        return table

    @property
    def policies(self) -> List[str]:
        return sorted(set(self._ipcs) | set(self._blocks))

    def _keys(self, policy: str) -> set:
        keys = set(self._ipcs.get(policy, ()))
        keys.update(self._block_rows.get(policy, ()))
        return keys

    def workloads(self, policy: str) -> List[Workload]:
        if policy not in self._ipcs and policy not in self._blocks:
            raise KeyError(policy)
        return sorted(self._keys(policy))

    def common_workloads(self) -> List[Workload]:
        """Workloads simulated under *every* recorded policy."""
        sets = [self._keys(policy) for policy in self.policies]
        if not sets:
            return []
        common = set.intersection(*sets)
        return sorted(common)

    def ipcs(self, policy: str, workload: Workload) -> IpcVector:
        table = self._ipcs.get(policy)
        if table is not None and workload in table:
            return table[workload]
        entry = self._block_rows.get(policy, {}).get(workload)
        if entry is None:
            if policy not in self._ipcs and policy not in self._blocks:
                raise KeyError(policy)
            raise KeyError(workload)
        block, row = entry
        return self._blocks[policy][block][1][row].tolist()

    def ipc_table(self, policy: str) -> Mapping[Workload, IpcVector]:
        """The full per-workload IPC table of one policy.

        Materialises streamed batches into the dict view; array
        consumers should prefer :meth:`columnar_panel`, which serves
        batch blocks without this conversion.
        """
        if policy not in self._ipcs and policy not in self._blocks:
            raise KeyError(policy)
        return self._materialize(policy)

    def has(self, policy: str, workload: Workload) -> bool:
        return (workload in self._ipcs.get(policy, ())
                or workload in self._block_rows.get(policy, ()))

    def _policy_matrix(self, policy: str, index) -> Optional[np.ndarray]:
        """The policy's panel aligned to ``index`` rows, block-only.

        Returns None when the policy has per-workload dict entries
        (mixed or legacy storage) -- the caller then takes the
        validating mapping path.
        """
        if self._ipcs.get(policy) or policy not in self._blocks:
            return None
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
        consumer re-walking the mapping tables.  Policies recorded via
        :meth:`record_batch` skip the mapping entirely: their blocks
        are served as matrices directly.

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
            tables = [self._keys(p) for p in chosen]
            workloads = sorted(set.intersection(*tables)) if tables else []
        if hasattr(workloads, "code_matrix"):    # a WorkloadPopulation
            index = workloads.index
        else:
            index = WorkloadIndex(tuple(workloads))
        matrices = {}
        for policy in chosen:
            panel = self._policy_matrix(policy, index)
            if panel is not None:
                matrices[policy] = IpcMatrix(index, panel)
            else:
                matrices[policy] = IpcMatrix.from_table(
                    index, self.ipc_table(policy), label=policy)
        return index, matrices

    def __len__(self) -> int:
        return (sum(len(t) for t in self._ipcs.values())
                + sum(len(r) for r in self._block_rows.values()))

    # ------------------------------------------------------------------
    # Persistence

    def _iter_rows(self, policy: str):
        """(workload, ipcs-list) pairs, dict entries then block rows.

        Same order :meth:`_materialize` would produce, but without
        collapsing the blocks -- serialisation must not destroy the
        columnar fast path.
        """
        table = self._ipcs.get(policy)
        if table:
            yield from table.items()
        for workloads, matrix in self._blocks.get(policy, ()):
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
        payload = json.loads(text)
        results = PopulationResults(payload["cores"], payload["simulator"])
        results.reference = dict(payload["reference"])
        for policy, table in payload["ipcs"].items():
            for key, ipcs in table.items():
                results.record(policy, Workload.from_key(key), ipcs)
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
            if policy in self._blocks and not self._ipcs.get(policy):
                blocks = self._blocks[policy]
                keys = [w.key() for workloads, _ in blocks
                        for w in workloads]
                panel = (blocks[0][1] if len(blocks) == 1 else
                         np.concatenate([m for _, m in blocks], axis=0))
            else:
                # Mixed or dict-only storage: emit rows in the same
                # order to_json does, so a reloaded population
                # serialises byte-identically to this one (the
                # engine's jobs/cache bit-identity contract).
                rows = list(self._iter_rows(policy))
                keys = [w.key() for w, _ in rows]
                panel = np.array([v for _, v in rows],
                                 dtype=np.float64)
                panel = panel.reshape(len(rows), self.cores)
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

    Members that are compressed, object-typed, or oddly shaped are
    simply skipped (the caller falls back to the eager ``np.load``
    read), as is the whole archive on any parse error -- mmap is a fast
    path, never a correctness dependency.
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
                raw.seek(info.header_offset + 30 + name_length
                         + extra_length)
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
