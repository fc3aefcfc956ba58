"""The distributed serve tier: router, worker fleet, placement, failover.

The spawned-fleet tests boot real worker processes (multiprocessing
``spawn``), so they keep workloads deliberately tiny; the ``attach``
control-verb tests run the :class:`WorkerServer` in-process. The crown
jewel is the kill-a-worker drill: SIGKILL one worker mid-run, let the
router restore its sessions from their lease-fenced checkpoints onto the
survivor, and demand byte-identical detections versus an uninterrupted
single-process run — the same ``run_replay`` that crashes and reboots a
one-process service, under one set of assertions.
"""

import asyncio
import os
import signal
import subprocess
import sys

import pytest

from repro.fleet import build_fleet_dataset, fleet_gold_event_description
from repro.serve import (
    SessionConfig,
    SessionManager,
    build_workload,
    latest_checkpoint,
    load_checkpoint,
    reference_merged,
    run_replay,
)
from repro.serve.cluster import (
    ClusterRouter,
    EngineSpec,
    WorkerServer,
    gold_engine_spec,
)
from repro.serve.loadgen import ServiceClient, Workload

SOAK_SPEC = EngineSpec("repro.serve.cluster.engines:soak_engine")
CONFIG = SessionConfig(window=60, step=60)


def _worker_server(tmp_path=None):
    manager = SessionManager(
        checkpoint_dir=str(tmp_path) if tmp_path is not None else None, owner="w0"
    )
    return WorkerServer(manager, SOAK_SPEC, CONFIG)


class TestWorkerControlVerbs:
    def test_attach_hosts_the_session_under_its_lease(self, tmp_path):
        async def run():
            server = _worker_server(tmp_path)
            attached = await server.dispatch(
                {"type": "attach", "session": "s0", "lease": 3}
            )
            assert attached["ok"] and attached["type"] == "attached"
            assert attached["lease"] == 3
            assert server.manager.sessions["s0"].owner == "w0"
            await server.manager.stop()

        asyncio.run(run())

    def test_double_attach_is_an_error(self, tmp_path):
        async def run():
            server = _worker_server(tmp_path)
            await server.dispatch({"type": "attach", "session": "s0"})
            response = await server.dispatch_line(
                b'{"type": "attach", "session": "s0"}\n'
            )
            assert response["ok"] is False
            assert response["error"] == "session-exists"
            await server.manager.stop()

        asyncio.run(run())

    def test_traffic_for_an_unknown_session_is_refused(self, tmp_path):
        async def run():
            server = _worker_server(tmp_path)
            await server.dispatch({"type": "attach", "session": "s0"})
            missing = await server.dispatch_line(
                b'{"type": "event", "session": "never", "time": 5, '
                b'"term": "start(e0)", "ack": true}\n'
            )
            assert missing["error"] == "no-such-session"
            await server.manager.stop()

        asyncio.run(run())


class TestClusterRouter:
    def test_recognise_through_count_placement(self, tmp_path):
        async def run():
            router = ClusterRouter(
                SOAK_SPEC, CONFIG, workers=2, checkpoint_dir=str(tmp_path)
            )
            try:
                port = await router.start()
                await router.assign_sessions(["s0", "s1", "s2", "s3"])
                owned = {wid: len(h.sessions) for wid, h in router.workers.items()}
                assert owned == {"w0": 2, "w1": 2}

                client = await ServiceClient.connect("127.0.0.1", port)
                for name in ("s0", "s1", "s2", "s3"):
                    for t, term in ((5, "start(e0)"), (20, "spike(e0)"), (40, "stop(e0)")):
                        reply = await client.request({
                            "type": "event", "session": name, "time": t,
                            "term": term, "ack": True,
                        })
                        assert reply["ok"], reply
                results = {}
                for name in ("s0", "s1", "s2", "s3"):
                    reply = await client.request({"type": "query", "session": name, "at": 60})
                    assert reply["ok"], reply
                    results[name] = reply["fvps"]
                # Shared-nothing placement is invisible to results: every
                # session saw the same stream, so identical detections.
                assert results["s0"] == results["s1"] == results["s2"] == results["s3"]
                assert results["s0"], "soak rules detected nothing"

                status = await client.request({"type": "status"})
                assert sorted(status["sessions"]) == ["s0", "s1", "s2", "s3"]
                assert sorted(status["workers"]) == ["w0", "w1"]
                for info in status["workers"].values():
                    assert info["alive"] is True
                    assert info["sessions"] == 2
                await client.close()
            finally:
                await router.stop()

        asyncio.run(run())

    def test_a_name_never_hosted_is_no_such_session(self):
        # As in one process: a stray name costs no engine build on a worker.
        async def run():
            router = ClusterRouter(SOAK_SPEC, CONFIG, workers=2)
            try:
                port = await router.start()
                await router.assign_sessions(["s0"])
                client = await ServiceClient.connect("127.0.0.1", port)
                reply = await client.request({
                    "type": "event", "session": "nope", "time": 5,
                    "term": "start(e0)", "ack": True,
                })
                assert reply["ok"] is False
                assert reply["error"] == "no-such-session"
                status = await client.request({"type": "status"})
                assert sorted(status["sessions"]) == ["s0"]
                await client.close()
            finally:
                await router.stop()

        asyncio.run(run())

    def test_graceful_stop_checkpoints_every_session(self, tmp_path):
        async def run():
            router = ClusterRouter(
                SOAK_SPEC, CONFIG, workers=2, checkpoint_dir=str(tmp_path)
            )
            try:
                port = await router.start()
                await router.assign_sessions(["s0", "s1"])
                client = await ServiceClient.connect("127.0.0.1", port)
                for name in ("s0", "s1"):
                    reply = await client.request({
                        "type": "event", "session": name, "time": 5,
                        "term": "start(e0)", "ack": True,
                    })
                    assert reply["ok"], reply
                await client.close()
            finally:
                await router.stop()

        asyncio.run(run())
        for name in ("s0", "s1"):
            path = latest_checkpoint(str(tmp_path), name)
            assert path is not None, "no checkpoint for %s" % name
            loaded = load_checkpoint(path)
            assert loaded.applied == 1
            assert loaded.owner in ("w0", "w1")
            assert loaded.lease >= 1


class TestSoakWorkload:
    def test_soak_through_a_two_worker_fleet(self):
        # A many-sessions slice of the soak path: every session is cheap,
        # the point is that the serving fabric (router, placement, per
        # session queues) handles the fan-out.
        names = ["soak%d" % index for index in range(24)]
        cycle = ("start", "spike", "stop")
        events = [
            (name, 7 * count + index % 7, "%s(e%d)" % (cycle[count // 4 % 3], count % 4))
            for count in range(8)
            for index, name in enumerate(names)
        ]
        workload = Workload(sessions=names, fluents=[], events=events, end_time=55)
        outcome = asyncio.run(run_replay(
            SOAK_SPEC, workload, CONFIG, workers=2, batch_size=32,
        ))
        assert outcome.final_report.events_accepted == len(workload.events)
        placed = sorted(
            len(sessions) for sessions in outcome.placement.values()
        )
        assert sum(placed) == 24
        assert placed[0] == 12, "placement is unbalanced: %r" % outcome.placement


@pytest.fixture(scope="module")
def fleet_workload():
    dataset = build_fleet_dataset()
    description = fleet_gold_event_description()
    return build_workload(
        dataset.stream, dataset.input_fluents, description, sessions=4, repeat=4
    )


@pytest.fixture(scope="module")
def fleet_reference(fleet_workload):
    """What every deployment must land on, crashed or not."""
    return reference_merged(
        gold_engine_spec("fleet").create, fleet_workload, SessionConfig(window=600, step=300)
    ).to_json()


def _drill(workload, reference, workers, checkpoint_dir=None):
    """The drill and what holds of it on any deployment; ``checkpoint_dir``
    makes it a crash drill (killed after half the events)."""
    crash = checkpoint_dir is not None
    outcome = asyncio.run(run_replay(
        gold_engine_spec("fleet"),
        workload,
        SessionConfig(window=600, step=300, checkpoint_every=1 if crash else 0),
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        kill_at=0.5 if crash else None,
        verify=True,
    ))
    assert outcome.verified is True, outcome.verify_detail
    assert outcome.merged.to_json() == reference
    assert outcome.workers == workers
    assert outcome.killed_at_event == (len(workload.events) // 2 if crash else None)
    # A crash actually cost something: sessions came back from checkpoints
    # and part of the stream was re-sent on a second pass.
    assert (outcome.resumed_pass is not None) == crash
    assert bool(outcome.restored_sessions) == crash
    return outcome


class TestKillAWorkerDrill:
    def test_no_kill_cluster_matches_reference(self, fleet_workload, fleet_reference):
        outcome = _drill(fleet_workload, fleet_reference, workers=2)
        assert outcome.killed_worker is None
        assert sum(len(v) for v in outcome.placement.values()) == 4

    def test_kill_and_restore_is_byte_identical(
        self, fleet_workload, fleet_reference, tmp_path
    ):
        outcome = _drill(fleet_workload, fleet_reference, 2, str(tmp_path))
        assert outcome.killed_worker in ("w0", "w1")
        survivor = "w1" if outcome.killed_worker == "w0" else "w0"
        # All four sessions ended up on the survivor; the victim is empty.
        assert sorted(outcome.placement[survivor]) == ["s0", "s1", "s2", "s3"]
        assert outcome.placement[outcome.killed_worker] == []
        assert set(outcome.restored_sessions) < {"s0", "s1", "s2", "s3"}

    @pytest.mark.parametrize("crash", (False, True))
    def test_one_process_runs_the_same_drill(
        self, fleet_workload, fleet_reference, tmp_path, crash
    ):
        outcome = _drill(
            fleet_workload, fleet_reference, 1, str(tmp_path) if crash else None
        )
        # No worker to lose: the crash takes the service and every session.
        assert outcome.killed_worker is None and outcome.placement == {}
        assert outcome.restored_sessions == (["s0", "s1", "s2", "s3"] if crash else [])

    def test_a_fleet_cannot_be_given_a_closure(self, fleet_workload):
        spec = gold_engine_spec("fleet")
        with pytest.raises(ValueError, match="EngineSpec"):
            asyncio.run(run_replay(
                lambda: spec.create(), fleet_workload, SessionConfig(window=600), workers=2
            ))


class TestServeSignals:
    def test_sigterm_checkpoints_every_live_session(self, tmp_path):
        # The operator story: `kill` on a serving process must leave every
        # session restorable, not just those that hit their every-k-windows
        # checkpoint cadence (here: none — checkpoint_every is 0).
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--gold", "fleet",
                "--tcp", "127.0.0.1:0", "--sessions", "2",
                "--checkpoint-dir", str(tmp_path),
                "--window", "600", "--step", "300",
            ],
            env=env, stderr=subprocess.PIPE,
        )
        try:
            banner = process.stderr.readline().decode()
            assert "serving RTEC recognition on" in banner
            port = int(banner.rsplit(":", 1)[1].split()[0])

            async def drive():
                client = await ServiceClient.connect("127.0.0.1", port)
                for name in ("s0", "s1"):
                    reply = await client.request({
                        "type": "event", "session": name, "time": 10,
                        "term": "stop_start(van1)", "ack": True,
                    })
                    assert reply["ok"], reply
                await client.close()

            asyncio.run(drive())
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        for name in ("s0", "s1"):
            path = latest_checkpoint(str(tmp_path), name)
            assert path is not None, "no checkpoint for %s" % name
            assert load_checkpoint(path).applied == 1
