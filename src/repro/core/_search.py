"""The compiled search loop: ``_search.c`` built on first import, loaded
through :mod:`ctypes`.

:data:`LIB` is the loaded library, or ``None`` when no C compiler is on the
``PATH`` or the build or load failed; every solve then runs
``cost_distance.PySearchLoop``, the same interface in Python (one
``repro.core`` warning says so).  The shared object is cached under
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), named by a hash of
the source, the flags and the machine, so an edited source or another
architecture builds afresh and an unchanged one loads in milliseconds.  An
unwritable cache, or a cached file that does not load, falls back to one
build in a per-process temporary directory.

The library also holds ``cd_sink_delays``, the tree walk (no state kept
between calls) that ``objective.sink_delays`` calls (``_tree_sink_delays``
without the library).

:class:`SearchLoop` wraps the C state of the solves on one graph and
cost vector, one solve at a time.  Besides what the kernel calls, it has
:class:`~repro.core.heap.TwoLevelHeap`'s interface (``add_search``,
``remove_search``, ``push``, ``pop``, ``len``, ``min_key``), so the heap
tests drive the C heap through the same streams.
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

__all__ = ["LIB", "SOURCE", "FLAGS", "SearchLoop", "View", "cache_dir", "load", "loop_name"]

SOURCE = Path(__file__).with_name("_search.c")
#: No ``-ffast-math``, no ``-march=native``: the loop must round like Python.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: cd_run's and cd_merge's results (``EV_*`` in ``_search.c``).
EXHAUSTED, MERGE, DONE, NOMEM = 0, 1, 2, 3

_logger = logging.getLogger("repro.core")

_I32P, _F64P = ctypes.POINTER(ctypes.c_int32), ctypes.POINTER(ctypes.c_double)


class View(ctypes.Structure):
    """What Python reads of the C state after a call: the counters, the
    merge ``cd_run`` stopped at and views of C's buffers, valid until the
    next call (``View`` in ``_search.c``)."""

    _fields_ = [
        ("pops", ctypes.c_int64),
        ("labels", ctypes.c_int64),
        ("search", ctypes.c_int32),
        ("owner", ctypes.c_int32),
        ("node", ctypes.c_int32),
        ("big", ctypes.c_int32),
        ("small", ctypes.c_int32),
        ("length", ctypes.c_int32),
        ("num_new", ctypes.c_int32),
        ("num_tree", ctypes.c_int32),
        ("num_kept", ctypes.c_int32),
        ("num_pairs", ctypes.c_int32),
        ("pair_capacity", ctypes.c_int32),
        ("path_nodes", _I32P),
        ("path_edges", _I32P),
        ("new_nodes", _I32P),
        ("tree", _I32P),
        ("kept", _I32P),
        ("pair_nodes", _I32P),
        ("pair_ids", _I32P),
        ("pair_dist", _F64P),
        ("pair_delay", _F64P),
    ]


# Argument types: every array travels as its address (``ndarray.ctypes.data``
# or ``array.buffer_info()[0]``) or as a ``View`` pointer.
_P, _I, _F = ctypes.c_void_p, ctypes.c_int32, ctypes.c_double
_SIGNATURES = {
    "cd_new": (_P, [_P, _P, _P, _P, _P, _I, _I, _P, _P]),
    "cd_free": (None, [_P]),
    "cd_reset": (ctypes.c_int, [_P, _I, _I, _I, _I, _F, _F, _F, _P, _I, _P, _P]),
    "cd_run": (ctypes.c_int, [_P]),
    "cd_merge": (ctypes.c_int, [_P, _I, _I, _F, _F, _F]),
    "cd_prune": (ctypes.c_int, [_P, _P, _I]),
    "cd_best_steiner": (_I, [_P, _P, _P, _I, _P, _I, _F, _F, _F, _F]),
    "cd_start_search": (ctypes.c_int, [_P, _I, _I, _I, _F, _F, _F]),
    "cd_connection_key": (_F, [_P, _I, _I, _F, _F]),
    "cd_add_tree_edge": (ctypes.c_int, [_P, _I, _I, _I]),
    "cd_set_component": (ctypes.c_int, [_P, _P, _I, _I]),
    "cd_member": (_I, [_P, _I, _F64P]),
    "cd_component_delays": (ctypes.c_int, [_P, _P, _I, _I, _I]),
    "cd_set_targets": (None, [_P, _P, _I]),
    "cd_settled_on": (ctypes.c_int, [_P, _P, _I, _I]),
    "cd_add_search": (ctypes.c_int, [_P, _I]),
    "cd_remove_search": (None, [_P, _I]),
    "cd_push": (ctypes.c_int, [_P, _I, _I, _I, _F]),
    "cd_pop": (ctypes.c_int, [_P, _P, _P, _P, _P]),
    "cd_len": (ctypes.c_int64, [_P]),
    "cd_min_key": (_F, [_P]),
    "cd_sink_delays": (_I, [_P, _P, _P, _I, _I, _P, _P, _I, _P, _P, _P, _P, _F, _F, _I, _P]),
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


#: The loaded library, or ``None``: the kernel then runs ``PySearchLoop``.
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


class SearchLoop:
    """The C state of cost-distance solves on one graph with one pair of
    edge vectors: labels, sub-heaps and top heap of every live search, the
    components (owner, size, edges), per component node its component, its
    delay to the component's representative and its union-find link, and
    the tree edges.  :meth:`reset` starts a solve, so one loop serves a
    whole batch (see ``OracleCostContext.search_loop``).

    Holds references to every array the C side borrows (graph CSR, cost,
    delay, the target field ``l1``, the :class:`View`), so they live as long
    as the state does.
    """

    def __init__(
        self,
        lib: ctypes.CDLL,
        graph=None,
        cost: Optional[np.ndarray] = None,
        delay: Optional[np.ndarray] = None,
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
        self.lib = lib
        #: The A* target field, per planar tile (see :meth:`set_targets`).
        self.l1 = np.zeros(nx * ny, dtype=np.float64)
        #: What C hands back (see :class:`View`).
        self.view = View()
        self._csr, self.cost, self.delay = csr, cost, delay
        arrays = [_address(array) for array in (*csr, cost, delay)]
        self._handle = lib.cd_new(*arrays, nx, ny, self.l1.ctypes.data, ctypes.byref(self.view))
        if not self._handle:
            raise MemoryError("cannot allocate the search state")
        self._delay = ctypes.c_double()

    def close(self) -> None:
        """Free the C state (idempotent; also on garbage collection).  No
        other call may follow."""
        if self._handle:
            self.lib.cd_free(self._handle)
            self._handle = None

    def __del__(self) -> None:
        self.close()

    @staticmethod
    def _check(status: int) -> int:
        if status < 0:
            raise MemoryError("out of memory in the search state")
        return status

    @staticmethod
    def _event(kind: int) -> int:
        if kind == EXHAUSTED:
            raise RuntimeError(
                "cost-distance search exhausted the queue before connecting "
                "all terminals; the routing graph is disconnected"
            )
        if kind == NOMEM:
            raise MemoryError("out of memory in the search state")
        return kind

    # -------------------------------------------------- kernel interface
    def reset(
        self,
        root: int,
        discount: bool,
        future_costs: bool,
        encourage: bool,
        dbif: float,
        eta: float,
        total_weight: float,
        nodes: List[int],
        weights: List[float],
        rates: List[float],
    ) -> None:
        """Start a solve: drop the previous one's state and set up
        the solve's -- component 0 the root's, component ``i + 1``
        terminal ``i``'s (``nodes``, ``weights``, potential ``rates``), the
        target field with ``future_costs``, every search started.
        ``encourage``: III-E and ``dbif > 0``; ``total_weight``: the total
        active weight as Python summed it."""
        nodes_array = _int32s(nodes)
        weights_array = array.array("d", weights)
        rates_array = array.array("d", rates)
        status = self.lib.cd_reset(
            self._handle,
            root,
            discount,
            future_costs,
            encourage,
            dbif,
            eta,
            total_weight,
            *nodes_array.buffer_info(),
            weights_array.buffer_info()[0],
            rates_array.buffer_info()[0],
        )
        self._check(status)

    def run(self) -> int:
        """Run to the next merge (``MERGE``: its path, tree edges and
        component union done, described by :attr:`view`) or the end
        (``DONE``)."""
        return self._event(self.lib.cd_run(self._handle))

    def merge(self, new_tid: int, node: int, weight: float, rate: float, total: float) -> int:
        """Finish the merge :meth:`run` stopped at with Python's decisions
        -- the new search ``new_tid`` (``-1``: a root merge) at ``node``
        with ``weight`` and ``rate``, the total active weight ``total``
        from now on -- and run on, as :meth:`run`."""
        return self._event(self.lib.cd_merge(self._handle, new_tid, node, weight, rate, total))

    def path(self) -> Tuple[List[int], List[int]]:
        """Nodes (seed first) and edges of the last merge's path (none
        before the solve's first merge)."""
        view = self.view
        if view.search < 0:
            return [], []
        return view.path_nodes[: view.length + 1], view.path_edges[: view.length]

    def best_steiner(
        self,
        roots: Sequence[int],
        source_weight: float,
        target_weight: float,
        min_cost_per_tile: float,
        fastest_delay_per_tile: float,
    ) -> int:
        """``_best_steiner_position`` without landmarks on the last merge's
        path, towards the sample ``roots``: the node."""
        roots = _int32s(roots)
        view = self.view
        index = self.lib.cd_best_steiner(
            self._handle,
            view.path_nodes,
            view.path_edges,
            view.length,
            *roots.buffer_info(),
            source_weight,
            target_weight,
            min_cost_per_tile,
            fastest_delay_per_tile,
        )
        return view.path_nodes[index]

    def tree_edges(self) -> List[int]:
        """The tree edges so far, in insertion order (before pruning)."""
        view = self.view
        return view.tree[: view.num_tree]

    def pruned(self, terminals: Sequence[int]) -> Tuple[int, ...]:
        """The tree edges without dangling branches (``terminals``: root
        and sinks), in insertion order."""
        terminals = _int32s(terminals)
        self._check(self.lib.cd_prune(self._handle, *terminals.buffer_info()))
        view = self.view
        return tuple(view.kept[: view.num_kept])

    def pairs(self) -> List[Tuple[int, int, float, float]]:
        """``(node, tid, dist, delay)`` of the last settled-node scan: the
        last merge's, whose connection candidates C queued, or
        :meth:`settled_on`'s."""
        view = self.view
        count = view.num_pairs
        if not count:
            return []
        return list(
            zip(
                view.pair_nodes[:count],
                view.pair_ids[:count],
                view.pair_dist[:count],
                view.pair_delay[:count],
            )
        )

    # ------------------------------------------------------ pieces, for tests
    def start_search(
        self, tid: int, node: int, comp: int, weight: float, rate: float, key: float
    ) -> None:
        """Register search ``tid`` of component ``comp`` (its edges cost 0.0
        under III-A) with its seed labelled 0 and queued."""
        self._check(self.lib.cd_start_search(self._handle, tid, node, comp, weight, rate, key))

    def connection_key(self, tid: int, comp: int, delay: float, dist: float) -> float:
        """``PySearchLoop.connection_key`` of search ``tid``'s candidate towards
        component ``comp`` (NaN if ``comp`` has no live owner)."""
        return self.lib.cd_connection_key(self._handle, tid, comp, delay, dist)

    def add_tree_edge(self, edge: int, u: int, v: int) -> bool:
        """Append ``edge`` (from ``u`` to ``v``) to the tree unless it
        closes a cycle, as a merge does with its path; whether it did."""
        return self._check(self.lib.cd_add_tree_edge(self._handle, edge, u, v)) == 1

    def set_component(self, nodes: Sequence[int], comp: int) -> None:
        """Put every node of ``nodes`` into component ``comp`` (a node new
        to the table starts at delay 0.0)."""
        nodes = _int32s(nodes)
        self._check(self.lib.cd_set_component(self._handle, *nodes.buffer_info(), comp))

    def member(self, node: int) -> Tuple[int, float]:
        """The component of ``node`` (``-1``: none) and its delay to the
        component's representative."""
        comp = self.lib.cd_member(self._handle, node, ctypes.byref(self._delay))
        return comp, self._delay.value

    def component_delays(self, edges: Collection[int], representative: int, comp: int) -> None:
        """Set the delay of every node of ``comp`` to ``representative``
        along ``edges`` (``_component_delays``; 0.0 where no edge path
        leads); nodes of other components on those edges keep theirs."""
        edges = _int32s(edges)
        status = self.lib.cd_component_delays(
            self._handle, *edges.buffer_info(), representative, comp
        )
        self._check(status)

    def set_targets(self, tiles: Sequence[int]) -> np.ndarray:
        """Rewrite :attr:`l1` in place to the L1 distance from every planar
        tile to the target ``tiles`` (``_target_l1``, value for value), and
        let the potential read it from now on.  Returns :attr:`l1`."""
        tiles = _int32s(tiles)
        self.lib.cd_set_targets(self._handle, *tiles.buffer_info())
        return self.l1

    def settled_on(self, nodes: Sequence[int], comp: int) -> List[Tuple[int, int, float, float]]:
        """``(node, tid, dist, delay)`` for every node (outer) and live
        search (inner, by id: activation order) outside ``comp`` that has
        settled it: the node's distance and its delay to its component's
        representative.  C's buffers grow to the pairs found, never to
        ``len(nodes)`` times the searches."""
        nodes = _int32s(nodes)
        self._check(self.lib.cd_settled_on(self._handle, *nodes.buffer_info(), comp))
        return self.pairs()

    # --------------------------------------------- TwoLevelHeap interface
    def __len__(self) -> int:
        return self.lib.cd_len(self._handle)

    def __bool__(self) -> bool:
        return self.lib.cd_len(self._handle) > 0

    def add_search(self, tid: int) -> None:
        self._check(self.lib.cd_add_search(self._handle, tid))

    def remove_search(self, tid: int) -> None:
        self.lib.cd_remove_search(self._handle, tid)

    def push(self, tid: int, item, key: float) -> bool:
        """Queue node ``item`` or connection candidate ``("c", node)``."""
        if isinstance(item, tuple):
            node, kind = item[1], 1
        else:
            node, kind = item, 0
        return self._check(self.lib.cd_push(self._handle, tid, node, kind, key)) == 1

    def pop(self):
        key = np.zeros(1, dtype=np.float64)
        ints = np.zeros(3, dtype=np.int32)  # search, node, kind
        address = ints.ctypes.data
        if not self.lib.cd_pop(self._handle, key.ctypes.data, address, address + 4, address + 8):
            raise IndexError("pop from an empty two-level heap")
        tid, node, kind = ints.tolist()
        return float(key[0]), tid, (("c", node) if kind else node)

    def min_key(self) -> float:
        return self.lib.cd_min_key(self._handle)
