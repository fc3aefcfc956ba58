"""Serving throughput: sustained ingest through the JSON-lines protocol.

The service decouples ingest from reasoning — accepting an event is a
protocol parse plus a bounded-queue append, while recognition runs on the
window cadence with cost governed by omega (the paper's Section 2
argument, applied to a long-lived deployment). This bench pumps the
maritime workload through a live loopback TCP service and measures:

* sustained ingest (accepted events per second over the pump phase) — the
  acceptance floor asserted here is 10k events/second;
* queue discipline — the peak queue depth never exceeds the high-water
  mark (overload becomes backpressure, not memory growth);
* end-to-end recognition rate (events per second including the drain to
  the final query), reported via ``extra_info`` for the benchmark JSON.

The cluster bench pumps one fleet workload through a router-fronted
worker fleet at 1 and at 4 workers and reports the aggregate throughput
ratio; on runners with at least 4 cores the ratio is asserted >= the
scaling floor (x2), elsewhere it is recorded in ``extra_info`` only.

Run:  pytest benchmarks/bench_serve_throughput.py --benchmark-only -s
"""

import asyncio
import os

import pytest

from repro.serve import ServiceClient, SessionConfig, build_workload, run_ingest, run_replay

#: The acceptance floor for sustained protocol ingest, events/second.
INGEST_FLOOR = 10_000

#: Aggregate throughput at 4 workers must beat 1 worker by this factor
#: (asserted only on runners with >= 4 cores).
CLUSTER_SCALING_FLOOR = 2.0


@pytest.fixture(scope="module")
def maritime_workload(dataset, gold_description):
    return build_workload(dataset.stream, dataset.input_fluents, gold_description)


@pytest.fixture(scope="module")
def engine_factory(dataset, gold_description):
    from repro.rtec import RTECEngine

    return lambda: RTECEngine(gold_description, dataset.kb, dataset.vocabulary)


class TestServeThroughput:
    def test_bench_sustained_ingest(
        self, benchmark, maritime_workload, engine_factory, capsys
    ):
        config = SessionConfig(window=1200, high_water=1 << 16)
        outcome = benchmark.pedantic(
            lambda: asyncio.run(run_replay(
                engine_factory, maritime_workload, config, mode="firehose"
            )),
            rounds=1,
            iterations=1,
        )
        report = outcome.final_report
        events = len(maritime_workload.events)
        recognition_rate = events / (report.ingest_seconds + report.drain_seconds)
        benchmark.extra_info["events"] = events
        benchmark.extra_info["ingest_rate"] = round(report.ingest_rate, 1)
        benchmark.extra_info["recognition_rate"] = round(recognition_rate, 1)
        benchmark.extra_info["queue_peak"] = report.queue_peak
        benchmark.extra_info["rejections"] = report.rejections
        with capsys.disabled():
            print(
                "\n=== serve ingest: %d events at %.0f ev/s "
                "(recognition incl. drain: %.0f ev/s, queue peak %d) ==="
                % (events, report.ingest_rate, recognition_rate, report.queue_peak)
            )
        assert report.events_accepted == events
        assert report.ingest_rate >= INGEST_FLOOR, (
            "sustained ingest %.0f ev/s is below the %d ev/s floor"
            % (report.ingest_rate, INGEST_FLOOR)
        )

    def test_bench_backpressure_bounds_queue(
        self, benchmark, maritime_workload, engine_factory, capsys
    ):
        high_water = 2048
        config = SessionConfig(window=1200, high_water=high_water)
        outcome = benchmark.pedantic(
            lambda: asyncio.run(run_replay(
                engine_factory, maritime_workload, config, mode="firehose"
            )),
            rounds=1,
            iterations=1,
        )
        report = outcome.final_report
        benchmark.extra_info["queue_peak"] = report.queue_peak
        benchmark.extra_info["rejections"] = report.rejections
        benchmark.extra_info["retries"] = report.retries
        with capsys.disabled():
            print(
                "\n=== serve backpressure: peak %d/%d queued, "
                "%d rejections over %d retries ==="
                % (report.queue_peak, high_water, report.rejections, report.retries)
            )
        # No unbounded growth: the queue never passed the high-water mark,
        # yet every event was eventually accepted.
        assert report.queue_peak <= high_water
        assert report.events_accepted == len(maritime_workload.events)


class TestClusterScaling:
    def test_bench_multi_worker_scaling(self, benchmark, capsys):
        from repro.fleet import build_fleet_dataset, fleet_gold_event_description
        from repro.serve.cluster import ClusterRouter, gold_engine_spec

        fleet = build_fleet_dataset()
        # Recognition-heavy: batched ingest amortises the router's
        # per-line cost, so aggregate throughput is governed by worker
        # CPU — the thing adding workers parallelises.
        workload = build_workload(
            fleet.stream, fleet.input_fluents, fleet_gold_event_description(),
            sessions=4, repeat=40,
        )
        spec = gold_engine_spec("fleet")
        config = SessionConfig(window=600, step=300, high_water=1 << 16)

        async def fleet_of_one():
            # run_replay(workers=1) is the in-process service, with no router
            # hop to pay: the gate is about what workers add to a fleet.
            router = ClusterRouter(spec, config, workers=1)
            try:
                port = await router.start()
                await router.assign_sessions(list(workload.sessions))
                client = await ServiceClient.connect("127.0.0.1", port)
                try:
                    return await run_ingest(client, workload, batch_size=64)
                finally:
                    await client.close()
            finally:
                await router.stop()

        def rate(report):
            return len(workload.events) / (
                report.ingest_seconds + report.drain_seconds
            )

        single = asyncio.run(fleet_of_one())
        quad = benchmark.pedantic(
            lambda: asyncio.run(run_replay(
                spec, workload, config, workers=4, batch_size=64
            )).final_report,
            rounds=1,
            iterations=1,
        )
        ratio = rate(quad) / rate(single)
        cores = os.cpu_count() or 1
        benchmark.extra_info["events"] = len(workload.events)
        benchmark.extra_info["sessions"] = len(workload.sessions)
        benchmark.extra_info["cores"] = cores
        benchmark.extra_info["rate_1_worker"] = round(rate(single), 1)
        benchmark.extra_info["rate_4_workers"] = round(rate(quad), 1)
        benchmark.extra_info["scaling_ratio"] = round(ratio, 3)
        with capsys.disabled():
            print(
                "\n=== cluster scaling: %d events, 1 worker %.0f ev/s vs "
                "4 workers %.0f ev/s -> x%.2f (%d cores) ==="
                % (len(workload.events), rate(single), rate(quad), ratio, cores)
            )
        assert quad.events_accepted == len(workload.events)
        if cores >= 4:
            assert ratio >= CLUSTER_SCALING_FLOOR, (
                "4-worker aggregate throughput x%.2f is below the x%.1f floor"
                % (ratio, CLUSTER_SCALING_FLOOR)
            )
