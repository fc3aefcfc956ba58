"""Smoke tests of the benchmark itself (outside tier-1's ``testpaths``).

Run with ``python -m pytest bench/tests -q`` from the repo root; about two
minutes, because every test drives the real ``bench/run.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
QUICK_SECONDS = "3"


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=600,
    )


def _last_json_line(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def test_quick_runs_every_workload_and_matches_the_schema():
    out = WORK / "smoke-result.json"
    done = _run("--quick", "--out", str(out))
    assert done.returncode == 0, done.stderr[-2000:]
    document = json.loads(out.read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in benchmark["workloads"]]
    assert sorted(document["sets"][0]) == sorted(names)
    for name in names:
        row = document["sets"][0][name]
        assert row["correct"] and row["failed"] == 0
        assert "committed-digest" in row["verified_by"]
        assert set(row["end_to_end"]) == {e["name"] for e in benchmark["end_to_end"]}
        traced = document["traced"][name]["per_layer"]
        assert set(traced) == {e["name"] for e in benchmark["per_layer"]}
    serve = document["traced"]["maritime_serve"]["per_layer"]
    cluster = document["traced"]["fleet_cluster"]["per_layer"]
    evaluation = ("busy_share.rtec.simple", "busy_share.rtec.static", "busy_share.intervals")
    assert sum(serve[name] for name in evaluation) > 0.5
    assert sum(cluster[name] for name in evaluation) < 0.5
    assert serve["busy_share.serve.checkpoint"] == 0 < cluster["busy_share.serve.checkpoint"]
    assert cluster["router.lines"] > 0 and cluster["worker.cpu_s"] > 0
    assert serve["unattributed_share"] < 0.2
    for name in ("maritime_serve", "maritime_disorder", "fleet_cluster"):
        row = document["traced"][name]
        assert row["per_layer"]["sessions.windows"] == (
            row["sizes"]["steps"] * row["sizes"]["sessions"])


def test_one_flipped_digest_fails_the_run():
    expected = WORK / "corrupt-expected"
    shutil.rmtree(expected, ignore_errors=True)
    shutil.copytree(BENCH / "expected", expected)
    path = expected / "maritime_serve.json"
    pinned = json.loads(path.read_text())
    for size in pinned["sizes"].values():
        digest = size["output_sha256"]
        size["output_sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    path.write_text(json.dumps(pinned))
    try:
        done = _run("--workload", "maritime_serve", "--seed", "0", "--seconds", QUICK_SECONDS,
                    "--trace", "0", "--expected-dir", str(expected))
    finally:
        shutil.rmtree(expected, ignore_errors=True)
    assert done.returncode != 0
    assert "output digest" in done.stderr
    result = _last_json_line(done.stdout)
    assert result is None or "metrics" not in result


def test_no_result_without_the_program():
    bare = WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        for workload in ("maritime_serve", "fig2_pipeline"):
            done = _run("--workload", workload, "--seed", "1", "--seconds", QUICK_SECONDS,
                        "--trace", "0", cwd=bare)
            assert done.returncode != 0
            result = _last_json_line(done.stdout)
            assert result is None or "metrics" not in result
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_shim_names_the_entry_point_it_cannot_find():
    traces = WORK / "shim-unresolved"
    shutil.rmtree(traces, ignore_errors=True)
    traces.mkdir(parents=True)
    script = (
        "import benchtrace\n"
        "benchtrace.WRAP_TABLE += (('repro.rtec.engine:RTECEngine.renamed_away', "
        "'engine.gone', benchtrace.RECORD),)\n"
        "benchtrace.install(%r)\n" % str(traces)
    )
    try:
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": "%s:%s" % (BENCH / "shim", ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert done.returncode != 0
        assert "repro.rtec.engine:RTECEngine.renamed_away" in done.stderr
        assert list(traces.glob("unresolved-*.txt"))
    finally:
        shutil.rmtree(traces, ignore_errors=True)
