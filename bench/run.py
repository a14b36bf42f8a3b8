"""Benchmark of the casimir_spheres solver: one workload, one seed.

    python3 bench/run.py --workload near-curve --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every repetition runs in a fresh
interpreter (``worker.py``) with cold caches and one BLAS thread.  The run
first starts ``SETUP_PROBES`` interpreters that only import the package and
make the inputs, then repeats the workload while the next repetition is
expected to end within ``--seconds``; at least one repetition always runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``, each as ``{"value": ..., "unit": ...}``.  A readable
table and the environment go to standard error.  ``--out FILE`` appends the full record of the run to FILE as one
JSON line, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "casimir_spheres", "__init__.py")

SETUP_PROBES = 5
BLAS_THREADS = "1"
RUN_LIMIT_S = 170.0   # a run must end within 180 s
WORKLOADS = ("near-curve", "mid-sweep", "points")


class BenchError(RuntimeError):
    """A worker did not produce a result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, *extra: str, timeout: float) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), *extra]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], cwd=ROOT,
                              env=worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(setups: list[float], reps: list[dict]) -> dict[str, float]:
    latencies = [t for rep in reps for t in rep["latencies_s"]]
    p50 = statistics.median(latencies)
    # the highest percentile with at least ten samples beyond it: p80 of
    # the 55 calls of a points repetition.  The inclusive (type 7) estimate
    # interpolates below the maximum of the few samples of a CLI run.
    p80 = (statistics.quantiles(latencies, n=5, method="inclusive")[3]
           if len(latencies) > 1 else latencies[0])
    return {
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "point_p50_s": p50,
        "point_p80_s": p80,
    }


def per_layer(reps: list[dict]) -> dict[str, float]:
    names = reps[0]["layers"]
    return {k: statistics.median(rep["layers"][k] for rep in reps)
            for k in names}


def measure(args) -> dict:
    """All repetitions of one run; the full record of the run."""
    start = time.monotonic()

    def left() -> float:
        return max(RUN_LIMIT_S - (time.monotonic() - start), 1.0)

    probes = [spawn(args, "--setup-only", timeout=left())
              for _ in range(SETUP_PROBES)]
    reps = []
    t0 = time.monotonic()
    while True:
        t = time.monotonic()
        reps.append(spawn(args, timeout=left()))
        reps[-1]["elapsed_s"] = time.monotonic() - t
        typical = statistics.median(rep["elapsed_s"] for rep in reps)
        if time.monotonic() - t0 + typical > args.seconds:
            break
    setups = [p["setup_s"] for p in probes] + [r["setup_s"] for r in reps]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(len(rep["failures"]) for rep in reps)
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": probes[0]["env"],
        "repetitions": len(reps), "samples": attempted,
        "reference_checked": all(rep["reference_checked"] for rep in reps),
        "failures": [f for rep in reps for f in rep["failures"]],
        "setups_s": setups,
        "reps": [{k: rep[k] for k in ("wall_s", "peak_rss_mb", "setup_s",
                                      "latencies_s")} for rep in reps],
        "result": {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": (per_layer(reps) if args.trace
                        else end_to_end(setups, reps)),
        },
    }


def describe(record: dict, spec: dict) -> str:
    """Readable summary of a run, every metric with its unit."""
    res = record["result"]
    unit = {m["name"]: m["unit"] for m in
            spec["per_layer" if record["trace"] else "end_to_end"]}
    lines = [f"workload {record['workload']} seed {record['seed']} "
             f"trace {record['trace']}: {record['repetitions']} repetitions, "
             f"{record['samples']} operations",
             f"  error_rate {res['failed']}/{res['attempted']} = "
             f"{res['failed'] / res['attempted']:.3g}"
             f" (reference values checked: {record['reference_checked']})"]
    lines += [f"  {name:<40} {value:>14.6g} {unit.get(name, '')}"
              for name, value in res["metrics"].items()]
    lines += [f"  failure: {f}" for f in record["failures"][:5]]
    lines.append("  env: " + json.dumps(record["env"]))
    return "\n".join(lines)


def result_line(record: dict, spec: dict) -> dict:
    """The result of a run with every metric of the spec and its unit."""
    res = record["result"]
    manifest = spec["per_layer" if record["trace"] else "end_to_end"]
    metrics = {m["name"]: {"value": res["metrics"][m["name"]],
                           "unit": m["unit"]} for m in manifest}
    return {**res, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full run record to this file")
    args = p.parse_args(argv)
    if not os.path.isfile(PACKAGE):
        print(f"error: no package source at {PACKAGE}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        record = measure(args)
        line = result_line(record, spec)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    print(describe(record, spec), file=sys.stderr)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
