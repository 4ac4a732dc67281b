"""Serialisation of set systems and instances.

Three formats are supported:

* **Edge list** (text): one ``set<TAB>element`` pair per line — exactly the
  edge-arrival stream format, so a file can be replayed as a stream.
* **JSON**: a self-describing document with labels, used for fixtures and for
  exchanging generated workloads between machines.
* **Columnar** (binary, memory-mapped): a directory with the set-id and
  element columns as ``uint64`` ``.npy`` files plus a JSON metadata/vocab
  sidecar.  :func:`open_columnar` memory-maps the columns, so
  :meth:`repro.streaming.stream.EdgeStream.from_columnar` can build
  :class:`~repro.streaming.batches.EventBatch` chunks straight from disk
  without ever materialising per-edge Python tuples — the fast ingestion
  path for large workloads (``benchmarks/bench_offline_throughput.py``
  quantifies the gap against :func:`read_edge_list`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro.coverage.bipartite import (
    BipartiteGraph,
    check_set_column,
    count_distinct,
    dense_ids,
)
from repro.coverage.setsystem import SetSystem
from repro.errors import CorruptInputError

__all__ = [
    "write_edge_list",
    "read_edge_list",
    "system_to_json",
    "system_from_json",
    "save_system",
    "load_system",
    "ColumnarEdges",
    "write_columnar",
    "write_columnar_columns",
    "open_columnar",
    "columnar_from_edge_list",
    "ColumnarSets",
    "write_columnar_sets",
    "open_columnar_sets",
]

#: Format marker written into every columnar metadata sidecar.
COLUMNAR_FORMAT = "repro.columnar.v1"

#: Format marker for the CSR set-arrival variant (offsets + members columns).
COLUMNAR_SETS_FORMAT = "repro.columnar-sets.v1"


def write_edge_list(
    edges: Iterable[tuple[Hashable, Hashable]], path: str | Path, *, sep: str = "\t"
) -> int:
    """Write (set, element) pairs to a text file; return the number written."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for set_label, element_label in edges:
            handle.write(f"{set_label}{sep}{element_label}\n")
            count += 1
    return count


def read_edge_list(path: str | Path, *, sep: str = "\t") -> list[tuple[str, str]]:
    """Read (set, element) string pairs from a text file.

    Blank lines and lines starting with ``#`` are skipped.
    """
    path = Path(path)
    edges: list[tuple[str, str]] = []
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(sep)
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
            edges.append((parts[0], parts[1]))
    return edges


def system_to_json(system: SetSystem) -> str:
    """Serialise a :class:`SetSystem` to a JSON document (labels preserved)."""
    payload = {
        "format": "repro.setsystem.v1",
        "sets": {str(label): sorted(map(str, system.members(label))) for label in system.set_labels()},
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def system_from_json(document: str) -> SetSystem:
    """Deserialise a :class:`SetSystem` from :func:`system_to_json` output."""
    payload = json.loads(document)
    if payload.get("format") != "repro.setsystem.v1":
        raise ValueError("not a repro.setsystem.v1 document")
    return SetSystem.from_dict(payload["sets"])


def save_system(system: SetSystem, path: str | Path) -> None:
    """Write a set system to a ``.json`` file."""
    Path(path).write_text(system_to_json(system), encoding="utf-8")


def load_system(path: str | Path) -> SetSystem:
    """Read a set system from a ``.json`` file."""
    return system_from_json(Path(path).read_text(encoding="utf-8"))


def graph_to_edge_lines(graph: BipartiteGraph) -> list[str]:
    """Render a graph's edges as ``set<TAB>element`` text lines (sorted)."""
    return [f"{s}\t{e}" for s, e in sorted(graph.edges())]


# --------------------------------------------------------------------- #
# columnar (memory-mapped) edge storage
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ColumnarEdges:
    """Memory-mapped columnar view of an edge list.

    ``set_ids`` / ``elements`` are parallel ``uint64`` arrays (one entry per
    edge), normally memory-mapped straight off disk by :func:`open_columnar`.
    When the source labels were not integers, ``set_labels`` /
    ``element_labels`` hold the vocab (label of id ``i`` at position ``i``);
    integer-labelled sources keep their ids verbatim and carry no vocab.
    """

    set_ids: np.ndarray
    elements: np.ndarray
    num_sets: int
    num_elements: int
    set_labels: tuple[str, ...] | None = None
    element_labels: tuple[str, ...] | None = None
    path: Path | None = None
    _graph_cache: "BipartiteGraph | None" = field(
        default=None, repr=False, compare=False
    )

    #: Rows converted per chunk when unrolling the columns into Python pairs;
    #: keeps iteration streaming instead of materialising the whole mapped
    #: file as two full-size Python lists.
    _ITER_CHUNK = 65_536

    @property
    def num_edges(self) -> int:
        """Number of edges stored."""
        return len(self.set_ids)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Yield the raw ``(set_id, element)`` integer pairs, in file order."""
        for start in range(0, len(self.set_ids), self._ITER_CHUNK):
            stop = start + self._ITER_CHUNK
            yield from zip(
                self.set_ids[start:stop].tolist(), self.elements[start:stop].tolist()
            )

    @cached_property
    def num_distinct_elements(self) -> int:
        """Distinct element ids in the column (the graph's ``num_elements``).

        Unlike the ``num_elements`` metadata, which a writer may override,
        this is what :meth:`to_graph` would count.
        """
        return count_distinct(self.elements)

    @cached_property
    def num_distinct_edges(self) -> int:
        """Distinct ``(set_id, element)`` rows (the graph's ``num_edges``).

        Counted on one packed ``int64`` key per row, ``set × width + element
        rank`` over :func:`~repro.coverage.bipartite.dense_ids`.  Set ids too
        large to pack are ranked the same way, which bounds the key by the
        square of the row count.
        """
        elements, width = dense_ids(self.elements)
        width = max(1, width)
        set_ids = self.set_ids
        if len(set_ids) and (int(set_ids.max()) + 1) * width > np.iinfo(np.int64).max:
            set_ids = dense_ids(set_ids)[0]
        return count_distinct(set_ids.astype(np.int64) * width + elements)

    def check_set_ids(self) -> None:
        """Raise the :class:`~repro.errors.InvalidInstanceError` that
        :meth:`to_graph` raises for a set id outside ``[0, max(1, num_sets))``,
        naming the first offending row, without building the graph."""
        check_set_column(self.set_ids, max(1, self.num_sets))

    def coverage(self, set_ids: Iterable[int]) -> int:
        """``C(S)``: distinct elements of the rows whose set is in ``set_ids``.

        Equal to ``to_graph().coverage(set_ids)`` for in-range ids, computed
        on the columns.
        """
        chosen = np.asarray(list(set_ids), dtype=np.uint64)
        return count_distinct(self.elements[np.isin(self.set_ids, chosen)])

    def to_graph(self) -> BipartiteGraph:
        """Materialise the columns as a :class:`BipartiteGraph`.

        The adjacency view of a columnar workload, for the solvers that walk
        it (streaming and offline); the distributed family and the
        evaluation of its answer use the columns directly.  The build is one
        bulk :meth:`BipartiteGraph.from_columns` call and runs once per
        view: repeated callers (e.g. a :class:`repro.api.Session` sweeping
        many solvers over one columnar problem) share the cached graph.
        """
        if self._graph_cache is None:
            graph = BipartiteGraph.from_columns(
                max(1, self.num_sets), self.set_ids, self.elements
            )
            object.__setattr__(self, "_graph_cache", graph)
        return self._graph_cache


def _encode_column(labels: list) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Encode a label column as uint64 ids, keeping integer labels verbatim.

    Integer labels (including canonical decimal strings, as produced by
    :func:`read_edge_list` on generated workloads) map to their own value;
    anything else gets first-seen vocab ids plus the vocab itself.  A string
    only takes the verbatim path when it is the canonical rendering of its
    value (``str(int(label)) == label``) — otherwise distinct labels like
    ``"01"`` and ``"1"`` would silently collapse onto one id.
    """
    values = np.empty(len(labels), dtype=np.uint64)
    try:
        for index, label in enumerate(labels):
            if isinstance(label, bool) or (not isinstance(label, (int, str))):
                raise ValueError
            value = int(label)
            if isinstance(label, str) and str(value) != label:
                raise ValueError
            values[index] = value
    except (ValueError, OverflowError):
        vocab: dict[str, int] = {}
        for index, label in enumerate(labels):
            key = str(label)
            values[index] = vocab.setdefault(key, len(vocab))
        return values, tuple(vocab)
    return values, None


def _default_dimension(
    override: int | None,
    labels: tuple[str, ...] | None,
    ids: np.ndarray,
    *,
    distinct: bool,
) -> int:
    """The shared size-defaulting rule for every columnar format.

    An explicit override wins; a vocab's length is authoritative for
    labelled columns; otherwise integer columns default to the distinct
    count (element dimensions) or ``max id + 1`` (set dimensions, matching
    :class:`~repro.streaming.stream.EdgeStream`).
    """
    if override is not None:
        return int(override)
    if labels is not None:
        return len(labels)
    if distinct:
        return count_distinct(ids)
    return int(ids.max()) + 1 if len(ids) else 0


def _write_columnar_dir(
    path: Path, columns: dict[str, np.ndarray], meta: dict
) -> None:
    """The one place any columnar directory (columns + meta.json) is written."""
    path.mkdir(parents=True, exist_ok=True)
    for name, column in columns.items():
        np.save(path / f"{name}.npy", column)
    (path / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")


def _write_edge_payload(
    path: Path,
    set_ids: np.ndarray,
    element_ids: np.ndarray,
    *,
    num_sets: int | None,
    num_elements: int | None,
    set_labels: tuple[str, ...] | None,
    element_labels: tuple[str, ...] | None,
) -> int:
    """The edge layout, shared by :func:`write_columnar` (label-encoding pair
    path) and :func:`write_columnar_columns` (whole-array path) so the size
    defaulting and the metadata schema cannot diverge between them."""
    _write_columnar_dir(
        path,
        {"set_ids": set_ids, "elements": element_ids},
        {
            "format": COLUMNAR_FORMAT,
            "num_edges": len(set_ids),
            "num_sets": _default_dimension(num_sets, set_labels, set_ids, distinct=False),
            "num_elements": _default_dimension(
                num_elements, element_labels, element_ids, distinct=True
            ),
            "set_labels": list(set_labels) if set_labels is not None else None,
            "element_labels": (
                list(element_labels) if element_labels is not None else None
            ),
        },
    )
    return len(set_ids)


def write_columnar(
    edges: Iterable[tuple[Hashable, Hashable]],
    path: str | Path,
    *,
    num_sets: int | None = None,
    num_elements: int | None = None,
) -> int:
    """Write ``(set, element)`` pairs as a columnar directory; return the count.

    ``path`` becomes a directory holding ``set_ids.npy`` / ``elements.npy``
    (``uint64`` columns, loadable with ``mmap_mode``) and ``meta.json``
    (format marker, sizes, and the label vocab when labels are not integers).
    ``num_sets`` / ``num_elements`` default to ``max id + 1`` and the count
    of distinct elements respectively, matching the conventions of
    :class:`~repro.streaming.stream.EdgeStream`.
    """
    set_column: list = []
    element_column: list = []
    for set_label, element_label in edges:
        set_column.append(set_label)
        element_column.append(element_label)
    set_ids, set_labels = _encode_column(set_column)
    element_ids, element_labels = _encode_column(element_column)
    return _write_edge_payload(
        Path(path),
        set_ids,
        element_ids,
        num_sets=num_sets,
        num_elements=num_elements,
        set_labels=set_labels,
        element_labels=element_labels,
    )


def _read_meta(path: Path, kind: str, expected_format: str) -> dict:
    """A columnar directory's ``meta.json``, checked for the format marker."""
    meta_path = path / "meta.json"
    if not meta_path.is_file():
        raise CorruptInputError(f"{path} is not a {kind} directory (no meta.json)")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CorruptInputError(f"{meta_path}: unreadable metadata ({exc})") from exc
    if not isinstance(meta, dict) or meta.get("format") != expected_format:
        raise CorruptInputError(f"{path} is not a {expected_format} directory")
    return meta


def _meta_count(meta: dict, key: str, path: Path) -> int:
    """A non-negative integer field of ``meta.json``."""
    if key not in meta:
        raise CorruptInputError(f"{path}: meta.json has no {key!r}")
    value = meta[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise CorruptInputError(
            f"{path}: meta.json {key!r} must be a non-negative integer, got {value!r}"
        )
    return value


def _load_column(path: Path, name: str, *, mmap: bool = False) -> np.ndarray:
    """One integer ``.npy`` column of a columnar directory.

    Zero-length arrays cannot be memory-mapped (mmap rejects empty files),
    so callers map only columns they know to be non-empty.
    """
    column_path = path / f"{name}.npy"
    try:
        column = np.load(column_path, mmap_mode="r" if mmap else None)
    except (OSError, ValueError, EOFError) as exc:
        raise CorruptInputError(f"{column_path}: unreadable column ({exc})") from exc
    if column.ndim != 1 or column.dtype.kind not in "iu":
        raise CorruptInputError(
            f"{column_path}: expected a 1-d integer column, "
            f"got shape {column.shape} dtype {column.dtype}"
        )
    return column


def open_columnar(path: str | Path) -> ColumnarEdges:
    """Open a columnar directory with the columns memory-mapped read-only.

    A missing or malformed file raises :class:`~repro.errors.CorruptInputError`
    naming the path.
    """
    path = Path(path)
    meta = _read_meta(path, "columnar edge", COLUMNAR_FORMAT)
    num_edges = _meta_count(meta, "num_edges", path)
    set_ids = _load_column(path, "set_ids", mmap=num_edges > 0)
    elements = _load_column(path, "elements", mmap=num_edges > 0)
    if len(set_ids) != len(elements) or len(set_ids) != num_edges:
        raise CorruptInputError(
            f"{path}: column lengths ({len(set_ids)}, {len(elements)}) do not "
            f"match meta num_edges={num_edges}"
        )
    set_labels = meta.get("set_labels")
    element_labels = meta.get("element_labels")
    return ColumnarEdges(
        set_ids=set_ids,
        elements=elements,
        num_sets=_meta_count(meta, "num_sets", path),
        num_elements=_meta_count(meta, "num_elements", path),
        set_labels=tuple(set_labels) if set_labels is not None else None,
        element_labels=tuple(element_labels) if element_labels is not None else None,
        path=path,
    )


def columnar_from_edge_list(
    source: str | Path, destination: str | Path, *, sep: str = "\t"
) -> int:
    """Convert a text edge list into the columnar format; return the count."""
    return write_columnar(read_edge_list(source, sep=sep), destination)


def write_columnar_columns(
    set_ids: np.ndarray,
    elements: np.ndarray,
    path: str | Path,
    *,
    num_sets: int | None = None,
    num_elements: int | None = None,
) -> int:
    """Write already-columnar integer edge data without per-edge Python objects.

    The whole-array twin of :func:`write_columnar` for workloads that are
    born as numpy columns (generators, shard dumps, benchmarks at the tens-
    of-millions-of-edges scale where a per-pair loop would dominate).  Both
    columns are cast to ``uint64`` and written in the same
    :data:`COLUMNAR_FORMAT` layout :func:`open_columnar` reads.
    """
    columns_in = {"set_ids": np.asarray(set_ids), "elements": np.asarray(elements)}
    for name, column in columns_in.items():
        if column.dtype.kind not in "iu":
            raise ValueError(
                f"{name} must be an integer column, got dtype {column.dtype}"
            )
        # An unsafe cast would silently wrap negatives to astronomical
        # uint64 ids (and num_sets/num_elements metadata); fail instead.
        if column.dtype.kind == "i" and len(column) and int(column.min()) < 0:
            raise ValueError(f"{name} contains negative ids")
    set_column = np.ascontiguousarray(columns_in["set_ids"], dtype=np.uint64)
    element_column = np.ascontiguousarray(columns_in["elements"], dtype=np.uint64)
    if set_column.ndim != 1 or set_column.shape != element_column.shape:
        raise ValueError(
            "set_ids and elements must be equal-length one-dimensional columns"
        )
    return _write_edge_payload(
        Path(path),
        set_column,
        element_column,
        num_sets=num_sets,
        num_elements=num_elements,
        set_labels=None,
        element_labels=None,
    )


# --------------------------------------------------------------------- #
# columnar (memory-mapped) CSR set-arrival storage
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ColumnarSets:
    """Memory-mapped CSR view of a set family (the set-arrival twin of
    :class:`ColumnarEdges`).

    ``set_ids[j]`` is the ``j``-th stored set and its members are
    ``members[offsets[j]:offsets[j+1]]`` — the exact layout of a set-layout
    :class:`~repro.streaming.batches.EventBatch`, so
    :meth:`repro.streaming.stream.SetStream.from_columnar` can slice batches
    straight off the mapped columns.  When the source labels were not
    integers, ``set_labels`` / ``element_labels`` hold the vocab.
    """

    set_ids: np.ndarray
    offsets: np.ndarray
    members: np.ndarray
    num_sets: int
    num_elements: int
    set_labels: tuple[str, ...] | None = None
    element_labels: tuple[str, ...] | None = None
    path: Path | None = None

    @property
    def num_stored_sets(self) -> int:
        """Number of set arrivals stored (one CSR row each)."""
        return len(self.set_ids)

    @property
    def num_memberships(self) -> int:
        """Total number of (set, element) memberships stored."""
        return len(self.members)

    def sets(self) -> Iterator[tuple[int, list[int]]]:
        """Yield ``(set_id, members)`` integer pairs, in stored order."""
        bounds = self.offsets.tolist()
        ids = self.set_ids.tolist()
        for row, set_id in enumerate(ids):
            yield set_id, self.members[bounds[row] : bounds[row + 1]].tolist()

    def to_graph(self) -> BipartiteGraph:
        """Materialise the family as a :class:`BipartiteGraph` (evaluation view).

        One bulk :meth:`BipartiteGraph.from_columns` call over the rows in
        stored order.
        """
        return BipartiteGraph.from_columns(
            max(1, self.num_sets),
            np.repeat(self.set_ids, np.diff(self.offsets)),
            self.members,
        )


def write_columnar_sets(
    sets: Iterable[tuple[Hashable, Sequence[Hashable]]],
    path: str | Path,
    *,
    num_sets: int | None = None,
    num_elements: int | None = None,
) -> int:
    """Write ``(set, members)`` pairs as a CSR columnar directory.

    ``path`` becomes a directory holding ``set_ids.npy`` / ``members.npy``
    (``uint64`` columns) and ``offsets.npy`` (``int64``, one row per stored
    set plus the closing bound) alongside ``meta.json``.  Labels follow the
    same convention as :func:`write_columnar`: integer labels are kept
    verbatim, anything else gets a first-seen vocab.  Returns the number of
    memberships written.
    """
    path = Path(path)
    set_column: list = []
    member_column: list = []
    lengths: list[int] = []
    for set_label, members in sets:
        members = list(members)
        set_column.append(set_label)
        member_column.extend(members)
        lengths.append(len(members))
    set_ids, set_labels = _encode_column(set_column)
    member_ids, element_labels = _encode_column(member_column)
    offsets = np.zeros(len(set_column) + 1, dtype=np.int64)
    np.cumsum(np.asarray(lengths, dtype=np.int64), out=offsets[1:])
    _write_columnar_dir(
        path,
        {"set_ids": set_ids, "offsets": offsets, "members": member_ids},
        {
            "format": COLUMNAR_SETS_FORMAT,
            "num_stored_sets": len(set_ids),
            "num_memberships": len(member_ids),
            "num_sets": _default_dimension(num_sets, set_labels, set_ids, distinct=False),
            "num_elements": _default_dimension(
                num_elements, element_labels, member_ids, distinct=True
            ),
            "set_labels": list(set_labels) if set_labels is not None else None,
            "element_labels": (
                list(element_labels) if element_labels is not None else None
            ),
        },
    )
    return len(member_ids)


def open_columnar_sets(path: str | Path) -> ColumnarSets:
    """Open a CSR set directory with the columns memory-mapped read-only.

    A missing or malformed file raises :class:`~repro.errors.CorruptInputError`
    naming the path.
    """
    path = Path(path)
    meta = _read_meta(path, "columnar set", COLUMNAR_SETS_FORMAT)
    num_stored_sets = _meta_count(meta, "num_stored_sets", path)
    num_memberships = _meta_count(meta, "num_memberships", path)
    set_ids = _load_column(path, "set_ids", mmap=num_stored_sets > 0)
    offsets = _load_column(path, "offsets")
    members = _load_column(path, "members", mmap=num_memberships > 0)
    if len(set_ids) != num_stored_sets or len(members) != num_memberships:
        raise CorruptInputError(
            f"{path}: column lengths ({len(set_ids)} sets, {len(members)} members) "
            f"do not match meta ({num_stored_sets}, {num_memberships})"
        )
    if len(offsets) != len(set_ids) + 1 or (len(offsets) and offsets[-1] != len(members)):
        raise CorruptInputError(
            f"{path}: offsets column is inconsistent with the member column"
        )
    if len(offsets) and (offsets[0] != 0 or bool(np.any(np.diff(offsets) < 0))):
        raise CorruptInputError(
            f"{path}: offsets must start at 0 and be non-decreasing "
            "(corrupt CSR row bounds would silently yield wrong families)"
        )
    set_labels = meta.get("set_labels")
    element_labels = meta.get("element_labels")
    return ColumnarSets(
        set_ids=set_ids,
        offsets=offsets,
        members=members,
        num_sets=_meta_count(meta, "num_sets", path),
        num_elements=_meta_count(meta, "num_elements", path),
        set_labels=tuple(set_labels) if set_labels is not None else None,
        element_labels=tuple(element_labels) if element_labels is not None else None,
        path=path,
    )
