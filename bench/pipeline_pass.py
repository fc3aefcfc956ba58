"""One pass of the paper's experiment as a batch job, in a fresh process.

``run_fig2a`` -> ``run_fig2b`` -> ``run_fig2c`` over one seeded dataset, the
three tables printed. The last line of standard output is a JSON object with
this process's own marks (monotonic clock, shared with the parent): when
``run_fig2a`` was entered and when the tables had been printed, plus CPU time,
peak RSS and the stream size.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    args = parser.parse_args()

    from repro.experiments import fig2a, fig2b, fig2c
    from repro.maritime import build_dataset

    dataset = build_dataset(seed=args.seed, scale=args.scale)
    entered = time.monotonic()
    result_a = fig2a.run_fig2a(seed=args.seed)
    result_b = fig2b.run_fig2b(dataset.kb, fig2a=result_a)
    result_c = fig2c.run_fig2c(fig2b=result_b, dataset=dataset)
    for table in (
        fig2a.format_table(result_a), fig2b.format_table(result_b), fig2c.format_table(result_c)
    ):
        print(table)
    sys.stdout.flush()
    printed = time.monotonic()

    peak_kb = 0
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                peak_kb = int(line.split()[1])
    times = os.times()
    print(json.dumps({
        "entered_fig2a": entered,
        "tables_printed": printed,
        "cpu_s": times.user + times.system,
        "peak_rss_kb": peak_kb,
        "events": len(dataset.stream),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
