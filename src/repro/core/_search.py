"""The compiled search loop: ``_search.c`` built on first import, loaded
through :mod:`ctypes`.

:data:`LIB` is the loaded library, or ``None`` when no C compiler is on the
``PATH`` or the build or load failed; the kernel then runs its Python loop
(one ``repro.core`` warning says so).  The shared object is cached under
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), named by a hash of
the source, the flags and the machine, so an edited source or another
architecture builds afresh and an unchanged one loads in milliseconds.  An
unwritable cache, or a cached file that does not load, falls back to one
build in a per-process temporary directory.

:class:`SearchLoop` wraps one solve's C state.  Besides what the kernel
calls, it has :class:`~repro.core.heap.TwoLevelHeap`'s interface
(``add_search``, ``remove_search``, ``push``, ``pop``, ``len``,
``min_key``), so the heap tests drive the C heap through the same streams.
"""

from __future__ import annotations

import array
import ctypes
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Collection, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["LIB", "SOURCE", "FLAGS", "SearchLoop", "cache_dir", "load", "loop_name"]

SOURCE = Path(__file__).with_name("_search.c")
#: No ``-ffast-math``, no ``-march=native``: the loop must round like Python.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: cd_run's events (``EV_*`` in ``_search.c``).
EXHAUSTED, SETTLED, CONNECT, NOMEM = 0, 1, 2, 3

_logger = logging.getLogger("repro.core")


class Event(ctypes.Structure):
    """What ``cd_run`` hands back to Python."""

    _fields_ = [
        ("key", ctypes.c_double),
        ("dist", ctypes.c_double),
        ("delay", ctypes.c_double),
        ("search", ctypes.c_int32),
        ("node", ctypes.c_int32),
        ("permanent", ctypes.c_int32),
        ("comp", ctypes.c_int32),
    ]


# Argument types: every array travels as its address (``ndarray.ctypes.data``
# or ``array.buffer_info()[0]``).
_P, _I, _F = ctypes.c_void_p, ctypes.c_int32, ctypes.c_double
_SIGNATURES = {
    "cd_new": (_P, [_P, _P, _P, _P, _P, _I, _I, _I]),
    "cd_free": (None, [_P]),
    "cd_set_component": (ctypes.c_int, [_P, _P, _I, _I]),
    "cd_add_search": (ctypes.c_int, [_P, _I]),
    "cd_start_search": (ctypes.c_int, [_P, _I, _I, _I, _F, _F, _F, _P, _I]),
    "cd_remove_search": (None, [_P, _I]),
    "cd_push": (ctypes.c_int, [_P, _I, _I, _I, _F]),
    "cd_pop": (ctypes.c_int, [_P, _P, _P, _P, _P]),
    "cd_len": (ctypes.c_int64, [_P]),
    "cd_min_key": (_F, [_P]),
    "cd_counts": (None, [_P, _P, _P]),
    "cd_run": (ctypes.c_int, [_P, ctypes.POINTER(Event)]),
    "cd_path": (_I, [_P, _I, _I, _P, _P, _I]),
    "cd_settled_on": (_I, [_P, _P, _I, _P, _I, _I, _I, _P, _P, _P, _P]),
    "cd_component_delays": (ctypes.c_int, [_P, _P, _I, _I, _I]),
    "cd_best_steiner": (_I, [_P, _P, _P, _I, _P, _I, _F, _F, _F, _F]),
    "cd_set_targets": (None, [_P, _P, _P, _I]),
}


def cache_dir() -> Path:
    """Where built libraries are kept: ``$XDG_CACHE_HOME/repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def _library_name() -> str:
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(" ".join(FLAGS).encode())
    digest.update(platform.machine().encode())
    return f"_search-{digest.hexdigest()[:16]}.so"


def _compile(compiler: str, directory: Path, name: str) -> Path:
    """Build into a temporary file of ``directory``, then move it into place
    (concurrent builders each replace the file with identical bytes)."""
    directory.mkdir(parents=True, exist_ok=True)
    handle, scratch = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
    os.close(handle)
    try:
        done = subprocess.run(
            [compiler, *FLAGS, "-o", scratch, str(SOURCE)], capture_output=True, text=True
        )
        if done.returncode != 0:
            raise OSError(f"{compiler} failed: {done.stderr.strip()[-400:]}")
        target = directory / name
        os.replace(scratch, target)
        return target
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def _open(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    for function, (restype, argtypes) in _SIGNATURES.items():
        getattr(lib, function).restype = restype
        getattr(lib, function).argtypes = argtypes
    return lib


def _build_private(compiler: str, name: str) -> ctypes.CDLL:
    """Build into a per-process temporary directory, load, and remove it
    (the loaded mapping outlives the file)."""
    if shutil.which(compiler) is None:
        raise OSError(f"no C compiler {compiler!r} on PATH")
    scratch_dir = tempfile.mkdtemp(prefix="repro-search-")
    try:
        return _open(_compile(compiler, Path(scratch_dir), name))
    finally:
        shutil.rmtree(scratch_dir, ignore_errors=True)


def load(compiler: str = "cc") -> Optional[ctypes.CDLL]:
    """Load the cached library, building it first if it is missing.  An
    unwritable cache, or a cached file that does not load (say, built by
    another host sharing the cache), means one build in a per-process
    temporary directory; ``None`` with one warning if that fails too."""
    try:
        if array.array("i").itemsize != 4:  # _int32s hands C `int` arrays as int32_t
            raise OSError("C int is not 32 bits wide")
        name = _library_name()
        cached = cache_dir() / name
        if not cached.exists() and shutil.which(compiler) is not None:
            try:
                _compile(compiler, cache_dir(), name)
            except OSError:  # an unwritable cache; a failed build fails again below
                pass
        if cached.exists():
            try:
                return _open(cached)
            except OSError:
                pass
        return _build_private(compiler, name)
    except Exception as exc:  # any failure means: run the Python loop
        _logger.warning("compiled search loop unavailable, using the Python loop: %s", exc)
        return None


#: The loaded library, or ``None``: the kernel then runs its Python loop.
LIB: Optional[ctypes.CDLL] = load()


def loop_name() -> str:
    """``"compiled"`` or ``"python"``: which loop two-level-heap solves run."""
    return "python" if LIB is None else "compiled"


def _address(array: Optional[np.ndarray]) -> Optional[int]:
    return None if array is None else array.ctypes.data


def _require(array: np.ndarray, dtype: type, size: int, name: str) -> None:
    """Refuse a buffer C would misread: wrong dtype, strided or short."""
    if array.dtype != dtype or not array.flags.c_contiguous or array.size != size:
        raise ValueError(f"{name} must be a contiguous {np.dtype(dtype)} array of {size} entries")


def _int32s(values: Iterable[int]) -> array.array:
    """``values`` as a C ``int32_t`` array: ``buffer_info()`` is its address
    and length (cheaper than numpy for the short lists of a merge; a list
    converts fastest)."""
    return array.array("i", values if isinstance(values, list) else list(values))


class _Columns:
    """Output arrays that C fills up to ``capacity`` entries each."""

    def __init__(self, capacity: int, *dtypes: type) -> None:
        self.capacity = capacity
        self.columns = tuple(np.empty(capacity, dtype=dtype) for dtype in dtypes)
        self.addresses = tuple(column.ctypes.data for column in self.columns)


#: Columns of ``cd_path`` (nodes, edges) and ``cd_settled_on`` (node,
#: search, dist, delay).
_PATH = (np.int32, np.int32)
_PAIRS = (np.int32, np.int32, np.float64, np.float64)


class SearchLoop:
    """The C state of one solve: labels, sub-heaps and top heap of every
    live search, and per component node its component (which the loop
    stops on) and its delay to the component's representative.

    Holds references to every array the C side borrows (graph CSR, cost,
    delay, the target field ``l1``), so they live as long as the state does.
    """

    def __init__(
        self,
        lib: ctypes.CDLL,
        graph=None,
        cost: Optional[np.ndarray] = None,
        delay: Optional[np.ndarray] = None,
        discount: bool = False,
    ) -> None:
        """State for solves on ``graph`` (a ``RoutingGraph``; ``None``: the
        heap interface only) with the edge vectors ``cost`` and ``delay``."""
        self._handle = None
        csr: Tuple[Optional[np.ndarray], ...] = (None, None, None)
        nx = ny = 1
        if graph is not None:
            csr = graph.csr
            nx, ny = graph.nx, graph.ny
            _require(csr[0], np.int32, graph.num_nodes + 1, "csr start")
            _require(csr[1], np.int32, 2 * graph.num_edges, "csr edge")
            _require(csr[2], np.int32, 2 * graph.num_edges, "csr other")
            _require(cost, np.float64, graph.num_edges, "cost")
            _require(delay, np.float64, graph.num_edges, "delay")
        self._lib = lib
        self._borrowed = (csr, cost, delay)
        arrays = [_address(array) for array in (*csr, cost, delay)]
        self._handle = lib.cd_new(*arrays, nx, ny, int(discount))
        if not self._handle:
            raise MemoryError("cannot allocate the search state")
        #: The A* target field, per planar tile (see :meth:`set_targets`).
        self.l1 = np.zeros(nx * ny, dtype=np.float64)
        self._l1_address = self.l1.ctypes.data
        self.event = Event()
        self._event_ref = ctypes.byref(self.event)
        self._path = _Columns(256, *_PATH)
        self._path_length = 0
        self._pairs = _Columns(64, *_PAIRS)

    def close(self) -> None:
        """Free the C state (idempotent; also on garbage collection).  No
        other call may follow."""
        if self._handle:
            self._lib.cd_free(self._handle)
            self._handle = None

    def __del__(self) -> None:
        self.close()

    @staticmethod
    def _check(status: int) -> int:
        if status < 0:
            raise MemoryError("out of memory in the search state")
        return status

    # -------------------------------------------------- kernel interface
    def set_targets(self, tiles: Sequence[int]) -> np.ndarray:
        """Rewrite :attr:`l1` in place to the L1 distance from every planar
        tile to the target ``tiles`` (``_target_l1``, value for value), and
        let the potential read it from now on (before the first call: all
        zero).  Returns :attr:`l1`."""
        tiles = _int32s(tiles)
        self._lib.cd_set_targets(self._handle, self._l1_address, *tiles.buffer_info())
        return self.l1

    def set_component(self, nodes: Sequence[int], comp: int) -> None:
        """``node_comp[n] = comp`` for every node of ``nodes`` (a node new to
        the table starts at delay 0.0)."""
        nodes = _int32s(nodes)
        self._check(self._lib.cd_set_component(self._handle, *nodes.buffer_info(), comp))

    def component_delays(self, edges: Collection[int], representative: int, comp: int) -> None:
        """Set the delay of every node of ``comp`` to ``representative``
        along ``edges`` (``_component_delays``; 0.0 where no edge path
        leads); nodes of other components on those edges keep theirs."""
        edges = _int32s(edges)
        status = self._lib.cd_component_delays(
            self._handle, *edges.buffer_info(), representative, comp
        )
        self._check(status)

    def best_steiner(
        self,
        roots: Sequence[int],
        source_weight: float,
        target_weight: float,
        min_cost_per_tile: float,
        fastest_delay_per_tile: float,
    ) -> int:
        """``_best_steiner_position`` without landmarks on the path of the
        last :meth:`path` call, towards the sample ``roots``: the node."""
        roots = _int32s(roots)
        path = self._path
        index = self._lib.cd_best_steiner(
            self._handle,
            *path.addresses,
            self._path_length,
            *roots.buffer_info(),
            source_weight,
            target_weight,
            min_cost_per_tile,
            fastest_delay_per_tile,
        )
        return int(path.columns[0][index])

    def start_search(
        self,
        tid: int,
        node: int,
        comp: int,
        weight: float,
        rate: float,
        key: float,
        own_edges: Sequence[int],
    ) -> None:
        """Register search ``tid`` with its seed labelled 0 and queued."""
        edges = _int32s(own_edges)
        status = self._lib.cd_start_search(
            self._handle, tid, node, comp, weight, rate, key, *edges.buffer_info()
        )
        self._check(status)

    def next_event(self) -> int:
        """Run until Python has to decide: a settled node of another
        component (``SETTLED``) or a popped connection candidate
        (``CONNECT``), described by :attr:`event` until the next call."""
        kind = self._lib.cd_run(self._handle, self._event_ref)
        if kind == EXHAUSTED:
            raise RuntimeError(
                "cost-distance search exhausted the queue before connecting "
                "all terminals; the routing graph is disconnected"
            )
        if kind == NOMEM:
            raise MemoryError("out of memory in the search state")
        return kind

    def counts(self) -> Tuple[int, int]:
        """Pops and labels of :meth:`next_event` so far."""
        counts = np.zeros(2, dtype=np.int64)
        self._lib.cd_counts(self._handle, counts.ctypes.data, counts.ctypes.data + 8)
        pops, labels = counts.tolist()
        return pops, labels

    def path(self, tid: int, node: int) -> Tuple[List[int], List[int]]:
        """Nodes (seed first) and edges of search ``tid``'s parent path to
        ``node``."""
        while True:
            path = self._path
            length = self._lib.cd_path(self._handle, tid, node, *path.addresses, path.capacity)
            if length < path.capacity:
                self._path_length = length
                nodes, edges = path.columns
                return nodes[: length + 1].tolist(), edges[:length].tolist()
            self._path = _Columns(2 * (length + 1), *_PATH)

    def settled_on(
        self, nodes: Sequence[int], tids: Sequence[int], comp: int
    ) -> List[Tuple[int, int, float, float]]:
        """``(node, tid, dist, delay)`` for every node (outer) and search of
        ``tids`` (inner, in order) outside ``comp`` that has settled it:
        the node's distance and its delay to its component's representative.

        The output buffers grow to the number of pairs found, never to
        ``len(nodes) * len(tids)``."""
        nodes, tids = _int32s(nodes), _int32s(tids)
        while True:
            pairs = self._pairs
            count = self._lib.cd_settled_on(
                self._handle,
                *nodes.buffer_info(),
                *tids.buffer_info(),
                comp,
                pairs.capacity,
                *pairs.addresses,
            )
            if not count:  # most merges: skip four empty slices
                return []
            if count <= pairs.capacity:
                return list(zip(*(column[:count].tolist() for column in pairs.columns)))
            self._pairs = _Columns(2 * count, *_PAIRS)

    # --------------------------------------------- TwoLevelHeap interface
    def __len__(self) -> int:
        return self._lib.cd_len(self._handle)

    def __bool__(self) -> bool:
        return self._lib.cd_len(self._handle) > 0

    def add_search(self, tid: int) -> None:
        self._check(self._lib.cd_add_search(self._handle, tid))

    def remove_search(self, tid: int) -> None:
        self._lib.cd_remove_search(self._handle, tid)

    def push(self, tid: int, item, key: float) -> bool:
        """Queue node ``item`` or connection candidate ``("c", node)``."""
        if isinstance(item, tuple):
            node, kind = item[1], 1
        else:
            node, kind = item, 0
        return self._check(self._lib.cd_push(self._handle, tid, node, kind, key)) == 1

    def pop(self):
        key = np.zeros(1, dtype=np.float64)
        ints = np.zeros(3, dtype=np.int32)  # search, node, kind
        address = ints.ctypes.data
        if not self._lib.cd_pop(self._handle, key.ctypes.data, address, address + 4, address + 8):
            raise IndexError("pop from an empty two-level heap")
        tid, node, kind = ints.tolist()
        return float(key[0]), tid, (("c", node) if kind else node)

    def min_key(self) -> float:
        return self._lib.cd_min_key(self._handle)
