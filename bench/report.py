"""Every metric of every workload, untraced and traced, in one command.

    python3 bench/report.py [--out FILE]

Runs each workload of ``BENCHMARK.json`` once with tracing off and once
with it on, with seed ``SEED``, and prints every end-to-end and per-layer
metric with its unit, the error rate, the tracing overhead (traced minus
untraced wall time), the layer with the largest self time, and the share
of the wall time outside any layer span.  ``--out FILE`` appends the run
records for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

SEED = 1
SELF_TIMES = ("specfun.ladder.self_s", "scattering.tmatrix.self_s",
              "translation.coupling.self_s", "roundtrip.assembly.self_s",
              "roundtrip.blocks.self_s", "roundtrip.logdet_batch.self_s",
              "matsubara.self_s", "thermo.self_s", "cli.self_s")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", help="append the run records to this file")
    args = p.parse_args(argv)
    spec = run.load_spec()
    for name in (w["name"] for w in spec["workloads"]):
        records = {}
        for trace in (0, 1):
            ns = argparse.Namespace(workload=name, seed=SEED,
                                    seconds=spec["run_seconds"],
                                    trace=trace)
            try:
                records[trace] = run.measure(ns)
            except run.BenchError as exc:
                print(f"error: {name} trace {trace}: {exc}", file=sys.stderr)
                return 1
            print(run.describe(records[trace], spec))
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(records[trace]) + "\n")
        plain = records[0]["result"]["metrics"]
        layers = records[1]["result"]["metrics"]
        wall = layers["trace.wall_s"]
        top = max(SELF_TIMES, key=lambda k: layers[k])
        print(f"  tracing overhead: {wall - plain['wall_s']:+.3f} s "
              f"({(wall - plain['wall_s']) / plain['wall_s']:+.1%} of "
              "untraced wall_s)")
        print(f"  largest self time: {top} = {layers[top]:.3f} s "
              f"({layers[top] / wall:.0%} of traced wall_s)")
        print(f"  outside any layer span: {layers['trace.unattributed_s']:.4f}"
              f" s ({layers['trace.unattributed_s'] / wall:.2%} of wall_s)")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
