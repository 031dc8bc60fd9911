"""The named-failpoint subsystem: API, grammar, spawn propagation."""

import errno
import json
import os
import subprocess
import sys
import time

import pytest

from repro.chaos import failpoints as fp
from repro.obs import MetricsRegistry, render_prometheus, use_registry
from repro.service import QueryService
from repro.service.transport import ServiceClient, SocketServer
from repro.store.replication import StoreMirror
from repro.store.store import IndexStore


@pytest.fixture(autouse=True)
def clean_failpoints():
    fp.reset()
    yield
    fp.reset()


class TestActivation:
    def test_error_action_raises_a_typed_oserror(self):
        fp.activate("wal.append", "error")
        with pytest.raises(fp.FailpointError) as err:
            fp.WAL_APPEND.fire()
        assert err.value.errno == errno.EIO
        assert err.value.point == "wal.append"
        assert isinstance(err.value, OSError)

    def test_error_value_carries_a_custom_errno(self):
        fp.activate("wal.append", "error", value=28)
        with pytest.raises(fp.FailpointError) as err:
            fp.WAL_APPEND.fire()
        assert err.value.errno == errno.ENOSPC

    def test_drop_action_is_a_connection_error(self):
        fp.activate("transport.send", "drop")
        with pytest.raises(fp.FailpointDropConnection):
            fp.TRANSPORT_SEND.fire()
        assert issubclass(fp.FailpointDropConnection, ConnectionError)

    def test_delay_action_sleeps_for_the_value_in_ms(self):
        fp.activate("service.execute", "delay", value=50)
        start = time.perf_counter()
        fp.SERVICE_EXECUTE.fire()
        assert time.perf_counter() - start >= 0.045

    def test_unarmed_points_are_inert(self):
        fp.WAL_APPEND.fire()  # nothing armed: must not raise
        fp.activate("wal.fsync", "error")
        fp.WAL_APPEND.fire()  # a DIFFERENT point is armed: still inert

    def test_unknown_point_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint"):
            fp.activate("wal.appendd", "error")

    def test_unknown_action_is_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint action"):
            fp.activate("wal.append", "explode")

    def test_non_positive_count_is_rejected(self):
        with pytest.raises(ValueError, match="count must be positive"):
            fp.activate("wal.append", "error", count=0)

    def test_deactivate_and_reset(self):
        fp.activate("wal.append", "error")
        assert fp.is_active("wal.append")
        assert fp.deactivate("wal.append") is True
        assert fp.deactivate("wal.append") is False
        assert not fp.is_active("wal.append")
        fp.activate("wal.fsync", "error")
        fp.reset()
        assert fp.active() == []
        fp.WAL_FSYNC.fire()  # inert again


class TestCounts:
    def test_count_limited_point_self_disarms(self):
        fp.activate("wal.append", "error", count=2)
        for _ in range(2):
            with pytest.raises(fp.FailpointError):
                fp.WAL_APPEND.fire()
        assert not fp.is_active("wal.append")
        fp.WAL_APPEND.fire()  # third pass: disarmed, no raise

    def test_hits_survive_disarm(self):
        fp.activate("wal.append", "error", count=1)
        with pytest.raises(fp.FailpointError):
            fp.WAL_APPEND.fire()
        fp.activate("transport.send", "delay", value=0)
        fp.TRANSPORT_SEND.fire()
        assert fp.hits() == {"wal.append": 1, "transport.send": 1}

    def test_hit_counter_lands_on_the_metrics_registry(self):
        with use_registry(MetricsRegistry()) as registry:
            fp.activate("admission.commit", "error", count=1)
            with pytest.raises(fp.FailpointError):
                fp.ADMISSION_COMMIT.fire()
            text = render_prometheus(registry)
        assert 'chaos_failpoint_hits_total{point="admission.commit"} 1' in text


class TestSpecGrammar:
    def test_parse_round_trips_format(self):
        spec = fp.format_spec("wal.append", "error", value=28, count=3)
        assert spec == "wal.append=error:28*3"
        (parsed,) = fp.parse_spec(spec)
        assert parsed == {
            "point": "wal.append", "action": "error", "value": 28.0, "count": 3,
        }

    def test_parse_multiple_specs(self):
        specs = fp.parse_spec("wal.append=error:28*1; transport.send=delay:50;")
        assert [s["point"] for s in specs] == ["wal.append", "transport.send"]
        assert specs[1] == {
            "point": "transport.send", "action": "delay", "value": 50.0,
            "count": None,
        }

    def test_bad_spec_is_rejected(self):
        with pytest.raises(ValueError, match="bad failpoint spec"):
            fp.parse_spec("wal.append")

    def test_env_spec_serialises_the_armed_points(self):
        fp.activate("wal.append", "error", value=28, count=2)
        fp.activate("transport.send", "delay", value=50)
        assert fp.env_spec() == "transport.send=delay:50;wal.append=error:28*2"

    def test_install_from_env(self):
        installed = fp.install_from_env({fp.ENV_VAR: "wal.fsync=error*1"})
        assert installed == 1
        assert fp.is_active("wal.fsync")

    def test_install_from_empty_env_is_a_no_op(self):
        assert fp.install_from_env({}) == 0
        assert fp.active() == []


class TestRemoteControlGate:
    def test_disabled_without_the_env_var(self):
        assert fp.remote_control_enabled({}) is False
        assert fp.remote_control_enabled({fp.CONTROL_ENV_VAR: "0"}) is False

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_enabled_values(self, value):
        assert fp.remote_control_enabled({fp.CONTROL_ENV_VAR: value}) is True


class TestSpawnPropagation:
    """REPRO_FAILPOINTS must arm failpoints in spawned child processes."""

    def _child_env(self, spec):
        env = dict(os.environ)
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env[fp.ENV_VAR] = spec
        return env

    def test_child_process_arms_inherited_points_at_import(self):
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.chaos import failpoints as f; import json; "
                "print(json.dumps(f.active()))",
            ],
            env=self._child_env("wal.append=error:28*2;transport.send=delay:50"),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        active = {d["point"]: d for d in json.loads(out.stdout)}
        assert set(active) == {"wal.append", "transport.send"}
        assert active["wal.append"]["remaining"] == 2
        assert active["wal.append"]["value"] == 28.0
        assert active["transport.send"]["remaining"] is None

    def test_child_actually_fires_the_inherited_point(self):
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.chaos import failpoints as f\n"
                "try:\n"
                "    f.WAL_APPEND.fire()\n"
                "    print('no-error')\n"
                "except f.FailpointError as exc:\n"
                "    print('errno', exc.errno)\n",
            ],
            env=self._child_env("wal.append=error:28*1"),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "errno 28"


class TestReachability:
    """Every declared point has a fire site the serving stack reaches."""

    def test_every_catalogued_point_fires(self, paper_example, tmp_path):
        for point in fp.CATALOGUE:
            fp.activate(point, "delay", value=0)
        store = str(tmp_path / "idx")
        IndexStore.build(paper_example, store, num_shards=2)
        with QueryService(store) as service:
            with SocketServer(service) as server:
                with ServiceClient(*server.address) as client:
                    mirror = StoreMirror(client, str(tmp_path / "mirror"))
                    mirror.sync()  # full sync: repl.manifest, repl.fetch
                    client.add([0, 3, 4])  # admission.commit, wal.append, wal.fsync
                    mirror.sync()  # delta sync: repl.wal
                    client.compact()  # store.compact.fold, store.compact.install
                    client.metric(2)  # the new generation's shards fault in
        hits = fp.hits()
        unreached = [point for point in fp.CATALOGUE if hits.get(point, 0) < 1]
        assert unreached == []
