"""The one statement of the flow parameters.

``python -m repro route``, ``submit`` / ``eco`` (and the daemon jobs they
create) and ``soak`` run the same resource-sharing flow, so they take the
same fields.  :data:`FIELDS` declares each field once: the job-param name
(the flag is the name with ``_`` -> ``-``), one value check, the help text,
the config attribute it lands on (whose dataclass default is the field's
default, never restated here) and whether results depend on it.  Four
things are derived from the table and are the only way an entry point
touches these fields: :func:`add_flow_arguments` (a command's argparse
options), :func:`flow_params` (parsed namespace -> job params),
:func:`validate_params` (unknown key or ill-typed value => ``ValueError``
naming the key -- the check argparse used, applied without coercion) and
:func:`build_flow` (job params -> chip, oracle, ``GlobalRouterConfig``).
A one-shot ``route`` is ``build_flow(flow_params(args))``, the call a daemon
route job makes on its params, so both build the same config.

The process-level options long-running commands share (``--trace``,
``--log-level``, ``--inject``) are declared here too:
:func:`add_process_arguments` and :func:`process_context`.
"""

from __future__ import annotations

import argparse
import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro import faults, obs
from repro.core.oracle import SteinerOracle
from repro.engine.engine import CACHE_SCOPES, SCHEDULING_POLICIES, EngineConfig
from repro.instances.chips import CHIP_SUITE, ChipSpec
from repro.router.oracles import ORACLES, make_oracle
from repro.router.router import GlobalRouterConfig

__all__ = [
    "FIELDS",
    "add_flow_arguments",
    "add_process_arguments",
    "build_flow",
    "flow_params",
    "process_context",
    "validate_params",
]


@dataclass(frozen=True)
class Kind:
    """One value check, shared by both boundaries.

    :meth:`check` is applied as-is to the already-typed values of a JSON
    job (no coercion: ``"2"`` is not an integer, ``true`` is not ``1``);
    argparse reaches the same check through :meth:`from_text`, i.e. behind
    a ``str`` parse.
    """

    wants: str  # completes "<name> must be ...", e.g. "a positive integer"
    types: Tuple[type, ...]  # exact types accepted; the last one parses argv text
    accepts: Callable[[object], bool] = lambda value: True
    options: Tuple[str, ...] = ()  # choice kinds: the accepted strings

    def check(self, name: str, value: object) -> None:
        if type(value) in self.types and self.accepts(value):
            return
        if self.options:
            raise ValueError(f"unknown {name} {value!r}; choose from {', '.join(self.options)}")
        raise ValueError(f"{name} must be {self.wants}, got {value!r}")

    def from_text(self, text: str) -> object:
        """The argparse ``type=`` of this kind."""
        try:
            value = self.types[-1](text)
            self.check("value", value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {self.wants}, got {text!r}") from None
        return value


def _choice(options: Iterable[str]) -> Kind:
    options = tuple(options)
    return Kind("one of " + ", ".join(options), (str,), options.__contains__, options)


POSITIVE_INT = Kind("a positive integer", (int,), lambda value: value >= 1)
NON_NEGATIVE_INT = Kind("a non-negative integer", (int,), lambda value: value >= 0)
INTEGER = Kind("an integer", (int,))
POSITIVE_FLOAT = Kind("a positive number", (int, float), lambda value: 0 < value < math.inf)
BOOL = Kind("true or false", (bool,))
TEXT = Kind("a string", (str,))
ECO_OPS = Kind(
    "a non-empty list of ECO op objects",
    (list,),
    lambda ops: bool(ops) and all(type(op) is dict for op in ops),
)


@dataclass(frozen=True)
class FlowField:
    """One row of the table (keyed by the job-param name).

    ``attr`` is the :class:`GlobalRouterConfig` attribute the value lands on
    (``"engine.x"``: on its :class:`EngineConfig`); ``None`` marks a field
    that is not configuration (chip selection, job-level keys), whose default
    is ``fallback``.  ``neutral`` marks a config field results do not depend
    on -- the set a checkpoint fingerprint leaves out.
    """

    kind: Kind
    help: str
    attr: Optional[str] = None
    fallback: object = None
    neutral: bool = False

    @property
    def default(self) -> object:
        if self.attr is None:
            return self.fallback
        owner, _, name = self.attr.rpartition(".")
        return (EngineConfig if owner else GlobalRouterConfig).__dataclass_fields__[name].default


FIELDS: Dict[str, FlowField] = {
    "chip": FlowField(
        _choice(spec.name for spec in CHIP_SUITE),
        "chip of the synthetic suite (paper Table III analogue)",
        fallback=CHIP_SUITE[0].name,
    ),
    "net_scale": FlowField(
        POSITIVE_FLOAT,
        "scale factor on the chip's net count (e.g. 0.3 for a smoke run)",
        fallback=1.0,
    ),
    "oracle": FlowField(
        _choice(sorted(ORACLES)),
        "Steiner tree oracle (CD = cost-distance, L1/SL/PD = baselines)",
        fallback="CD",
    ),
    "rounds": FlowField(POSITIVE_INT, "resource-sharing rounds", "num_rounds"),
    "seed": FlowField(INTEGER, "routing seed", "seed"),
    "workers": FlowField(
        POSITIVE_INT,
        "engine batch pool size (default: the usable CPUs; 1 = every batch in-process); "
        "a pool takes only the batches whose predicted work pays for it "
        "(results are bit-identical either way)",
        "engine.num_workers",
        neutral=True,
    ),
    "scheduling": FlowField(
        _choice(SCHEDULING_POLICIES), "net batching policy", "engine.scheduling"
    ),
    "cache": FlowField(BOOL, "enable the incremental re-route cache", "engine.reroute_cache"),
    "cache_scope": FlowField(
        _choice(CACHE_SCOPES),
        "re-route cache signature scope: 'bbox' digests costs over each net's bounding region "
        "(fast, heuristic), 'global' digests the full cost vector (guaranteed bit-identical to "
        "running without --cache)",
        "engine.cache_scope",
    ),
    "shards": FlowField(
        POSITIVE_INT,
        "route the chip as this many rectangular regions through the shard coordinator: "
        "interior nets run on per-region subgraphs, seam-crossing nets in a global stitch pass "
        "(1 = classic single-region flow); `submit --shards K` is the same flow as `route "
        "--shards K`, and combined with --session, later eco jobs replay their memos through "
        "the coordinator; eco: re-point the session's flow at this many regions before "
        "replaying (omit to keep the session's current decomposition)",
        "shards",
    ),
    "shard_halo": FlowField(
        NON_NEGATIVE_INT,
        "halo tiles around net boxes for interior/seam classification (of the session's flow)",
        "shard_halo",
    ),
    "shard_workers": FlowField(
        POSITIVE_INT,
        "worker processes for the region-parallel shard pass: route the K region interiors of "
        "each round concurrently on a process pool (default/1 = serial; results are "
        "bit-identical either way; soak: the chaos run's pool, the clean run stays serial)",
        "shard_workers",
        neutral=True,
    ),
    "shard_parity": FlowField(
        BOOL,
        "shard verification mode: route interior nets on the full graph and every net against "
        "the round-start snapshot, reproducing the unsharded router bit for bit at a "
        "full-round cost window",
        "shard_parity",
    ),
    # Job-level keys: what to do with the flow, not how to route it.
    "session": FlowField(
        TEXT,
        "open a persistent session under this name (target of later eco jobs); eco: the "
        "target session name",
    ),
    "ops": FlowField(ECO_OPS, "eco: the JSON list of ECO ops to apply"),
    "trace": FlowField(
        TEXT,
        "ask the daemon to trace this job to the given path (daemon-side file; ignored while "
        "a daemon-wide --trace is active)",
    ),
    "checkpoint_every": FlowField(
        POSITIVE_INT,
        "route: with --checkpoint, save every N rounds instead of every round; submit: "
        "auto-checkpoint the route every N rounds to a daemon-side file next to the job "
        "record -- a restarted daemon re-adopts the job and resumes from the last saved round "
        "(the final round is always saved)",
    ),
}

_JOB_LEVEL = ("session", "ops", "trace", "checkpoint_every")
#: The fields that say what to route and how: the flags of ``route`` and,
#: with the job-level keys, the params of a ``route`` job / flags of ``submit``.
FLOW_NAMES = tuple(name for name in FIELDS if name not in _JOB_LEVEL)
#: The params each job kind accepts.
JOB_PARAMS: Dict[str, Tuple[str, ...]] = {
    "route": tuple(name for name in FIELDS if name != "ops"),
    "eco": ("session", "ops", "shards", "shard_workers", "shard_halo"),
}
#: Config attributes a result (hence a checkpoint resume) does not depend
#: on: the table's neutral fields plus the one no job param reaches
#: (``tests/test_flowparams.py`` holds ``router_fingerprint`` to the rest).
RESULT_NEUTRAL = frozenset(
    {field.attr for field in FIELDS.values() if field.neutral} | {"shard_start_method"}
)


def add_flow_arguments(
    parser: argparse.ArgumentParser,
    names: Sequence[str],
    defaults: Optional[Mapping[str, object]] = None,
    required: Sequence[str] = (),
) -> None:
    """Declare the flags of the fields ``names`` on ``parser``; ``defaults``
    overrides table defaults for this one command (``soak``'s smaller
    instance, ``eco``'s "omit to keep the session's value")."""
    defaults = defaults or {}
    for name in names:
        field = FIELDS[name]
        options: Dict[str, object] = {
            "default": defaults.get(name, field.default),
            "required": name in required,
            "help": field.help,
        }
        if field.kind is BOOL:
            options["action"] = "store_true"
        elif field.kind.options:
            options["choices"] = field.kind.options
        else:
            options["type"] = field.kind.from_text
        parser.add_argument("--" + name.replace("_", "-"), **options)  # type: ignore[arg-type]
    parser.set_defaults(flow_names=tuple(names))


def flow_params(args: argparse.Namespace) -> Dict[str, object]:
    """The job params a parsed command line stands for (unset values omitted)."""
    values = ((name, getattr(args, name)) for name in args.flow_names)
    return {name: value for name, value in values if value is not None}


def validate_params(kind: str, params: Mapping[str, object]) -> None:
    """Refuse a job's params unless every key is one ``kind`` accepts and
    every value passes its field's check (``ValueError`` names the key)."""
    accepted = JOB_PARAMS[kind]
    for name, value in params.items():
        if name not in accepted:
            raise ValueError(f"unknown {kind} param {name!r}; accepted: {', '.join(accepted)}")
        # ``None`` means "unset" exactly where the field's default is ``None``.
        if value is not None or FIELDS[name].default is not None:
            FIELDS[name].kind.check(name, value)


def config_kwargs(params: Mapping[str, object]) -> Tuple[Dict[str, object], Dict[str, object]]:
    """``(EngineConfig kwargs, GlobalRouterConfig kwargs)`` of the config
    fields set in (validated) ``params``."""
    engine: Dict[str, object] = {}
    router: Dict[str, object] = {}
    for name, value in params.items():
        attr = FIELDS[name].attr
        if attr is not None and value is not None:
            owner, _, key = attr.rpartition(".")
            (engine if owner else router)[key] = value
    return engine, router


def build_flow(params: Mapping[str, object]) -> Tuple[ChipSpec, SteinerOracle, GlobalRouterConfig]:
    """What a set of ``route`` job params routes: the chip, the oracle and
    the flow configuration.  The one place these are built from params."""
    validate_params("route", params)

    def value(name: str):
        given = params.get(name)
        return FIELDS[name].default if given is None else given

    spec = next(s for s in CHIP_SUITE if s.name == value("chip"))
    if value("net_scale") != 1.0:
        spec = spec.scaled(value("net_scale"))
    engine, router = config_kwargs(params)
    config = GlobalRouterConfig(engine=EngineConfig(**engine), **router)  # type: ignore[arg-type]
    return spec, make_oracle(value("oracle")), config


def add_process_arguments(parser: argparse.ArgumentParser, tracing: bool = True) -> None:
    """Declare ``--trace`` / ``--log-level`` (unless ``tracing`` is off) and
    ``--inject``; :func:`process_context` acts on them."""
    if tracing:
        parser.add_argument(
            "--trace",
            default=None,
            metavar="PATH",
            help="write a JSON-lines trace (round/region/batch spans, per-net events, final "
            "counters; under serve: daemon-wide, the spans of every job) to PATH; inspect it "
            "with 'python -m repro trace summarize PATH'",
        )
        parser.add_argument(
            "--log-level",
            default=None,
            choices=["debug", "info", "warning", "error"],
            help="stderr logging level for the repro.* logger tree",
        )
    parser.add_argument(
        "--inject",
        action="append",
        default=None,
        metavar="SPEC",
        help="inject a fault for chaos testing (serve: daemon-wide; soak: into the chaos run), "
        "e.g. 'kill-region-worker:round=2', 'kill-pool-worker', 'slow-oracle:ms=20', "
        "'drop-outcome', 'crash-run:round=1'; repeatable (see repro.faults)",
    )


@contextlib.contextmanager
def process_context(args: argparse.Namespace) -> Iterator[None]:
    """Act on the options of :func:`add_process_arguments` around a run:
    logging, tracing and the fault plan on entry; on exit the trace is
    closed with the final counters and the plan removed."""
    trace = getattr(args, "trace", None)
    if getattr(args, "log_level", None) is not None:
        obs.configure_logging(args.log_level)
    if trace is not None:
        obs.configure_tracing(trace)
    if args.inject:
        faults.install_plan(";".join(args.inject))
    try:
        yield
    finally:
        if trace is not None:
            obs.close_tracing(obs.default_registry().snapshot())
        if args.inject:
            faults.clear_plan()
