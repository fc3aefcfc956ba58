"""What a person reads: metric listings, the per-layer table, the comparison.

Nothing here measures; it formats rows produced by ``run.py``, condenses the
sets of a result file to medians and spreads, and judges two result files
against the bounds of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Optional


def machine_facts(root: Path) -> Dict[str, Any]:
    """Enough about the box and the build to tell whether two files compare."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.intervals import get_backend

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(root), capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": get_backend(),
        "git_commit": commit,
        "pythonhashseed": "0",
    }


def _format_value(value: float) -> str:
    return "%.4g" % value if abs(value) < 1000 else "%.1f" % value


def print_end_to_end(row: Dict[str, Any], benchmark: Dict[str, Any]) -> None:
    samples = row["samples"]
    print("%s  seed=%d  sizes=%s  load=%.2f  steal=%.3f%s" % (
        row["workload"], row["seed"], json.dumps(row["sizes"], sort_keys=True),
        row["load_1m_at_start"], row["outside"]["loadgen.steal_share"],
        "  NOISY" if row["noisy"] else ""))
    for entry in benchmark["end_to_end"]:
        name = entry["name"]
        count = samples["setup"] if name == "setup_s" else samples["advance"]
        print("  %-18s %12s %-5s (n=%d)" % (
            name, _format_value(row["end_to_end"][name]), entry["unit"], count))
    print("  %-18s %12s        (%d failed of %d attempted; verified by %s)" % (
        "correct", row["correct"], row["failed"], row["attempted"],
        "+".join(row["verified_by"])))


def _cell(value: Optional[float], pattern: str = "%9.3f") -> str:
    return pattern % value if value is not None else " " * (len(pattern % 0.0) - 1) + "-"


def print_layer_view(row: Dict[str, Any]) -> None:
    """Per layer: count / avg / p50 / p95 and where the busy time went."""
    print("%s (traced)  seed=%d  trace_overhead_share=%.3f  unattributed_share=%.3f" % (
        row["workload"], row["seed"], row["per_layer"]["trace_overhead_share"],
        row["per_layer"]["unattributed_share"]))
    print("  %-16s %-26s %9s %9s %9s %9s %9s %7s" % (
        "layer", "span", "count", "avg ms", "p50 ms", "p95 ms", "self s", "busy %"))
    for line in row["layer_table"]:
        share = line["busy_share"]
        print("  %-16s %-26s %9d %s %s %s %9.3f %s" % (
            line["layer"], line["span"], line["count"], _cell(line["avg_ms"]),
            _cell(line["p50_ms"]), _cell(line["p95_ms"]), line["self_s"],
            "%6.1f%%" % (share * 100) if share is not None else "  wait"))
    shares = sorted(
        ((value, name[len("busy_share."):]) for name, value in row["per_layer"].items()
         if name.startswith("busy_share.") and value > 0), reverse=True)
    print("  busy share by layer: " + ", ".join(
        "%s %.1f%%" % (name, value * 100) for value, name in shares))
    if "latency_budget" in row:
        print("  latency budget, ms of one step (mean step %.3f ms):" % row["advance_mean_ms"])
        for line in row["latency_budget"]:
            print("    %-60s %8.3f" % (line["layer"], line["ms_per_step"]))


def summarise(document: Dict[str, Any], benchmark: Dict[str, Any]) -> Dict[str, Any]:
    """workload -> metric -> median, extremes and spread over the sets."""
    summary: Dict[str, Any] = {}
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        rows = [rows[workload] for rows in document["sets"] if workload in rows]
        if not rows:
            continue
        summary[workload] = {"noisy": any(row["noisy"] for row in rows)}
        for entry in benchmark["end_to_end"]:
            values = [row["end_to_end"][entry["name"]] for row in rows]
            median = statistics.median(values)
            summary[workload][entry["name"]] = {
                "unit": entry["unit"],
                "values": values,
                "median": median,
                "spread": (max(values) - min(values)) / median if median else 0.0,
            }
    return summary


def print_summary(document: Dict[str, Any], benchmark: Dict[str, Any]) -> None:
    print("== medians over %d set(s), spread = (max - min) / median" % len(document["sets"]))
    for workload, metrics in document["summary"].items():
        print("%s%s" % (workload, "  NOISY" if metrics["noisy"] else ""))
        for entry in benchmark["end_to_end"]:
            cell = metrics[entry["name"]]
            print("  %-18s %12s %-5s spread %5.1f%%  bound %4.0f%%" % (
                entry["name"], _format_value(cell["median"]), entry["unit"],
                cell["spread"] * 100, entry["bound"] * 100))


def validate_against_schema(document: Dict[str, Any], benchmark: Dict[str, Any]) -> List[str]:
    """Names the result file must carry, per ``BENCHMARK.json``; [] when it does."""
    problems = []
    end_to_end = {entry["name"] for entry in benchmark["end_to_end"]}
    per_layer = {entry["name"] for entry in benchmark["per_layer"]}
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for index, rows in enumerate(document["sets"]):
            found = set(rows.get(workload, {}).get("end_to_end", {}))
            if found != end_to_end:
                problems.append("set %d, %s: end-to-end metrics differ from BENCHMARK.json: %s"
                                % (index, workload, sorted(found ^ end_to_end)))
        if document["traced"]:
            found = set(document["traced"].get(workload, {}).get("per_layer", {}))
            if found != per_layer:
                problems.append("%s: per-layer metrics differ from BENCHMARK.json: %s"
                                % (workload, sorted(found ^ per_layer)))
    return problems


def _verdict(entry: Dict[str, Any], base: Dict[str, Any], change: Dict[str, Any]) -> str:
    sign = 1.0 if entry["better"] == "lower" else -1.0
    worsening = sign * (change["median"] - base["median"]) / base["median"]
    spread = max(base["spread"], change["spread"])
    if sign > 0:
        all_better = max(change["values"]) < min(base["values"])
    else:
        all_better = min(change["values"]) > max(base["values"])
    if spread > entry["bound"]:
        return "better" if all_better else "unresolved"
    if worsening > entry["bound"]:
        return "worse"
    if all_better and -worsening > spread:
        return "better"
    return "same"


def compare(path_a: Path, path_b: Path, benchmark: Dict[str, Any]) -> int:
    """Per workload and end-to-end metric: A, B, B/A, the bound and a verdict."""
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    for label, path, document in (("A", path_a, a), ("B", path_b, b)):
        facts = document["machine"]
        print("%s = %s  commit %s  %d set(s)  seed %s  %s s  nproc %s  %s  backend %s" % (
            label, path, str(facts["git_commit"])[:12],
            len(document["sets"]), document["seed"], document["seconds"], facts["nproc"],
            facts["cpu_model"], facts["kernel_backend"]))
    worse = 0
    print("%-18s %-18s %12s %12s %9s %7s  %s" % (
        "workload", "metric", "A median", "B median", "B / A", "bound", "verdict"))
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        if workload not in a["summary"] or workload not in b["summary"]:
            print("%-18s missing from one file" % workload)
            continue
        noisy = a["summary"][workload]["noisy"] or b["summary"][workload]["noisy"]
        for entry in benchmark["end_to_end"]:
            base, change = a["summary"][workload][entry["name"]], b["summary"][workload][entry["name"]]
            verdict = _verdict(entry, base, change)
            worse += verdict == "worse"
            print("%-18s %-18s %12s %12s %8.3fx %6.0f%%  %s%s" % (
                workload, entry["name"], _format_value(base["median"]),
                _format_value(change["median"]), change["median"] / base["median"],
                entry["bound"] * 100, verdict, "  (noisy box)" if noisy else ""))
    print("ratios are B's median over A's median; %d worse" % worse)
    return 1 if worse else 0
