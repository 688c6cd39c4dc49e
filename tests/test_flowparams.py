"""The flow-parameter table is the contract: every entry point's flags,
defaults, validation and ``GlobalRouterConfig`` come from ``repro.flowparams``."""

import dataclasses
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import build_parser as build_route_parser
from repro.core.bifurcation import BifurcationModel
from repro.engine.engine import EngineConfig
from repro.flowparams import (
    FIELDS,
    FLOW_NAMES,
    JOB_PARAMS,
    RESULT_NEUTRAL,
    build_flow,
    flow_params,
    validate_params,
)
from repro.router.resource_sharing import ResourceSharingConfig
from repro.router.router import GlobalRouterConfig
from repro.serve.checkpoint import router_fingerprint
from repro.serve.cli import build_parser as build_serve_parser
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ServeDaemon
from repro.serve.jobs import JobStore
from repro.serve.soak import build_parser as build_soak_parser

SOAK_OVERRIDES = {"net_scale": 0.15, "shards": 2, "shard_workers": 2}


def _dataclass_default(attr):
    owner, _, name = attr.rpartition(".")
    cls = EngineConfig if owner == "engine" else GlobalRouterConfig
    (field,) = [f for f in dataclasses.fields(cls) if f.name == name]
    return field.default


class TestDefaults:
    @pytest.mark.parametrize(
        "command, args",
        [
            ("route", build_route_parser().parse_args([])),
            ("submit", build_serve_parser().parse_args(["submit"])),
            ("soak", build_soak_parser().parse_args([])),
        ],
    )
    def test_parser_defaults_are_the_tables_are_the_dataclass(self, command, args):
        if command != "soak":  # soak takes the subset it can vary
            assert set(FLOW_NAMES) <= set(args.flow_names)
        for name in args.flow_names:
            field = FIELDS[name]
            if field.attr is not None:
                assert field.default == _dataclass_default(field.attr), name
            want = SOAK_OVERRIDES.get(name, field.default) if command == "soak" else field.default
            assert getattr(args, name) == want, (command, name)

    def test_every_route_job_param_is_a_submit_flag(self):
        assert build_serve_parser().parse_args(["submit"]).flow_names == JOB_PARAMS["route"]

    def test_empty_params_build_the_default_config(self):
        spec, oracle, config = build_flow({})
        assert (spec.name, oracle.name, config) == ("c1", "CD", GlobalRouterConfig())


def _choices(name):
    return st.sampled_from(FIELDS[name].kind.options)


FLAG_STRATEGIES = {
    "chip": _choices("chip"),
    "net_scale": st.floats(0.05, 3.0, allow_nan=False),
    "oracle": _choices("oracle"),
    "rounds": st.integers(1, 9),
    "seed": st.integers(-(2**31), 2**31),
    "scheduling": _choices("scheduling"),
    "cache": st.booleans(),
    "cache_scope": _choices("cache_scope"),
    "shards": st.integers(1, 9),
    "shard_halo": st.integers(0, 5),
    "shard_workers": st.integers(1, 8),
    "shard_parity": st.booleans(),
}


def _argv(values):
    argv = []
    for name, value in values.items():
        flag = "--" + name.replace("_", "-")
        if isinstance(value, bool):
            argv += [flag] if value else []
        else:
            argv += [flag, repr(value)] if isinstance(value, float) else [flag, str(value)]
    return argv


class TestRouteAndSubmitAgree:
    def test_the_strategy_covers_every_flow_field(self):
        assert set(FLAG_STRATEGIES) == set(FLOW_NAMES)

    @settings(max_examples=150, deadline=None)
    @given(st.fixed_dictionaries({}, optional=FLAG_STRATEGIES))
    def test_same_flags_build_the_same_flow(self, values):
        argv = _argv(values)
        route = flow_params(build_route_parser().parse_args(argv))
        submit = flow_params(build_serve_parser().parse_args(["submit"] + argv))
        spec, oracle, config = build_flow(route)
        submit_spec, submit_oracle, submit_config = build_flow(submit)
        assert config == submit_config
        assert (spec, oracle.name) == (submit_spec, submit_oracle.name)
        for name, value in values.items():
            assert route[name] == value
        # What `submit` sends survives the wire unchanged and still validates.
        wired = json.loads(json.dumps(submit))
        validate_params("route", wired)
        assert wired == submit and build_flow(wired)[2] == config


class _Spy:
    """Records which attributes of a (nested) config dataclass are read."""

    def __init__(self, target, seen, prefix=""):
        self.__dict__.update(_target=target, _seen=seen, _prefix=prefix)

    def __getattr__(self, name):
        self._seen.add(self._prefix + name)
        value = getattr(self._target, name)
        if dataclasses.is_dataclass(value):
            return _Spy(value, self._seen, name + ".")
        return value


def test_every_config_field_is_fingerprinted_or_declared_result_neutral():
    """Adding a field to ``GlobalRouterConfig`` / ``EngineConfig`` forces a
    decision: ``router_fingerprint`` reads it (a resume depends on it) or
    the table marks it result-neutral."""
    seen = set()
    router = SimpleNamespace(
        config=_Spy(GlobalRouterConfig(shards=2), seen),  # fast path: the layout is read
        netlist=SimpleNamespace(name="n", num_nets=1),
        graph=SimpleNamespace(nx=1, ny=1, num_layers=1, num_edges=1),
        oracle=SimpleNamespace(name="CD"),
        bifurcation=BifurcationModel(),
        prices=SimpleNamespace(config=ResourceSharingConfig()),
    )
    router_fingerprint(router)
    fields = {f.name for f in dataclasses.fields(GlobalRouterConfig)}
    fields |= {"engine." + f.name for f in dataclasses.fields(EngineConfig)}
    assert fields - seen == RESULT_NEUTRAL
    assert FIELDS["shard_workers"].attr in RESULT_NEUTRAL


def test_option_inventory():
    """The flow's settable options, by name: adding or removing a knob is a
    deliberate edit of this test."""
    assert {f.name for f in dataclasses.fields(EngineConfig)} == {
        "scheduling", "reroute_cache", "cache_scope",
    }
    assert {f.name for f in dataclasses.fields(GlobalRouterConfig)} == {
        "num_rounds", "dbif", "cost_refresh_interval", "seed", "engine", "shards",
        "shard_parity", "shard_halo", "shard_workers", "shard_start_method",
    }


class TestValidation:
    @pytest.mark.parametrize(
        "params, message",
        [
            ({"round": 1}, "unknown route param 'round'"),
            ({"ops": [{"op": "remove_net", "net": "n0"}]}, "unknown route param 'ops'"),
            ({"cache": "false"}, "cache must be true or false, got 'false'"),
            ({"shard_parity": 1}, "shard_parity must be true or false, got 1"),
            ({"rounds": 2.9}, "rounds must be a positive integer, got 2.9"),
            ({"rounds": True}, "rounds must be a positive integer, got True"),
            ({"rounds": "2"}, "rounds must be a positive integer, got '2'"),
            ({"rounds": [1]}, r"rounds must be a positive integer, got \[1\]"),
            ({"rounds": None}, "rounds must be a positive integer, got None"),
            ({"workers": 2}, "unknown route param 'workers'"),
            ({"shard_halo": -1}, "shard_halo must be a non-negative integer, got -1"),
            ({"net_scale": True}, "net_scale must be a positive number, got True"),
            ({"net_scale": 0}, "net_scale must be a positive number, got 0"),
            # JSON ``Infinity``: used to pass here and die later in ChipSpec.scaled.
            (json.loads('{"net_scale": Infinity}'), "net_scale must be a positive number, got inf"),
            ({"seed": 1.0}, "seed must be an integer, got 1.0"),
            ({"oracle": "XX"}, "unknown oracle 'XX'; choose from CD, L1, PD, SL"),
            ({"session": 7}, "session must be a string, got 7"),
        ],
    )
    def test_route_params_are_refused_by_name(self, params, message):
        with pytest.raises(ValueError, match=message):
            validate_params("route", params)
        with pytest.raises(ValueError, match=message):
            build_flow(params)

    def test_null_means_unset_only_where_the_default_is_none(self):
        unset = {"shard_workers", "checkpoint_every", "trace", "session"}
        for name in JOB_PARAMS["route"]:
            if name in unset:
                validate_params("route", {name: None})
            else:
                with pytest.raises(ValueError, match=f"{name} must be|unknown {name}"):
                    validate_params("route", {name: None})

    def test_a_json_integer_is_a_valid_float(self):
        assert build_flow({"net_scale": 1})[0].num_nets == build_flow({})[0].num_nets

    def test_eco_accepts_only_its_own_keys(self):
        ops = [{"op": "remove_net", "net": "n0"}]
        validate_params("eco", {"session": "s", "ops": ops, "shards": 2, "shard_halo": 0})
        with pytest.raises(ValueError, match="unknown eco param 'rounds'; accepted: session, ops"):
            validate_params("eco", {"session": "s", "ops": ops, "rounds": 2})
        with pytest.raises(ValueError, match="ops must be a non-empty list of ECO op objects"):
            validate_params("eco", {"session": "s", "ops": ["remove_net"]})


class TestParsersAgree:
    def test_route_takes_shard_halo_and_submit_takes_shard_parity(self):
        route = build_route_parser().parse_args(["--shards", "2", "--shard-halo", "1"])
        assert build_flow(flow_params(route))[2].shard_halo == 1
        submit = build_serve_parser().parse_args(["submit", "--shard-parity"])
        assert flow_params(submit)["shard_parity"] is True

    def test_submit_rejects_a_mistyped_choice_before_any_socket(self, capsys):
        for argv, message in (
            (["--oracle", "XX"], "invalid choice"),
            # Where batches run is the engine's decision, not an option.
            (["--backend", "process"], "unrecognized arguments: --backend"),
            (["--workers", "2"], "unrecognized arguments: --workers"),
            (["--cache-scope", "die"], "invalid choice"),
            (["--net-scale", "inf"], "must be a positive number, got 'inf'"),
        ):
            with pytest.raises(SystemExit) as raised:
                build_serve_parser().parse_args(["submit", "--port", "1"] + argv)
            assert raised.value.code == 2
            assert message in capsys.readouterr().err

    def test_route_and_soak_refuse_the_batch_pool_size(self, capsys):
        """Batches run in-process: no parser takes ``--workers``."""
        from repro.serve.soak import build_parser as build_soak_parser

        for parser in (build_route_parser(), build_soak_parser()):
            with pytest.raises(SystemExit) as raised:
                parser.parse_args(["--workers", "2"])
            assert raised.value.code == 2
            assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_submit_sends_no_null_and_keeps_shard_fields_at_one_shard(self):
        argv = ["submit", "--shard-halo", "2", "--shard-workers", "2"]
        params = flow_params(build_serve_parser().parse_args(argv))
        assert None not in params.values() and "workers" not in params
        assert (params["shards"], params["shard_halo"], params["shard_workers"]) == (1, 2, 2)


@pytest.fixture()
def client():
    with ServeDaemon(port=0, job_workers=1) as daemon:
        host, port = daemon.start()
        client = ServeClient(host, port, timeout=30.0)
        client.wait_until_up()
        yield client


class TestDaemonRefusesAtSubmit:
    """One case per defect that was demonstrable before the table existed:
    each of these jobs used to be accepted, and to route something."""

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"round": 1}, "unknown route param 'round'"),  # routed the default 2 rounds
            ({"cache": "false"}, "cache must be true or false"),  # turned the cache on
            ({"rounds": 2.9}, "rounds must be a positive integer, got 2.9"),  # routed 2
            ({"rounds": True}, "rounds must be a positive integer, got True"),  # routed 1
            ({"workers": 2}, "unknown route param 'workers'"),
            ({"backend": "process"}, "unknown route param 'backend'"),
        ],
    )
    def test_route_job(self, client, params, message):
        with pytest.raises(ServeError, match=message):
            client.submit_route(chip="c1", net_scale=0.1, **params)
        assert client.jobs() == []

    def test_eco_job(self, client):
        with pytest.raises(ServeError, match="unknown eco param 'rounds'"):
            client.submit_eco("s", [{"op": "remove_net", "net": "n0"}], rounds=2)
        assert client.jobs() == []

    def test_readopted_record_with_a_stray_key_fails_by_name(self, tmp_path):
        """A record an older daemon accepted goes through the same
        ``build_flow``: it fails with the named error, it does not route a
        default."""
        state = str(tmp_path / "state")
        store = JobStore(state_dir=state)
        job = store.submit("route", {"chip": "c1", "net_scale": 0.1, "round": 1})
        store.mark_running(job.job_id)
        with ServeDaemon(port=0, job_workers=1, state_dir=state) as daemon:
            assert daemon.store.adopted_jobs == [job.job_id]
            host, port = daemon.start()
            client = ServeClient(host, port, timeout=30.0)
            client.wait_until_up()
            record = client.wait(job.job_id, timeout=60.0)
        assert record["status"] == "failed"
        assert "ValueError: unknown route param 'round'" in record["error"]
