"""Write ``reference.json``: the outputs the benchmark checks against.

    python3 bench/make_reference.py

Runs every workload's operations once, untimed, and checks them against
the invariants alone before storing them.  The CLI workloads have one
reference for all seeds; ``points`` has one per seed of ``SEEDS``.  Regenerate
only when the inputs change, from a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

# the points seeds with a stored reference; other seeds are checked against
# the invariants only
SEEDS = range(11)


def outputs_of(wl, seed: int):
    inputs = wl.inputs(seed)
    outputs = [wl.run(inp) for inp in inputs]
    for i, (inp, out) in enumerate(zip(inputs, outputs)):
        errors = wl.check(i, inp, out, None)
        if errors:
            raise SystemExit(f"{wl.name} seed {seed}: {errors}")
    return wl.reference(inputs, outputs)


def main() -> int:
    ref = {"points": {}}
    for name in ("near-curve", "mid-sweep"):
        ref[name] = outputs_of(workloads.WORKLOADS[name], 0)
    for seed in SEEDS:
        ref["points"][str(seed)] = outputs_of(workloads.WORKLOADS["points"],
                                              seed)
        print(f"points seed {seed} done", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
