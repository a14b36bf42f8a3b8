"""Compare two sets of benchmark runs, workload by workload.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds run records appended by ``run.py --out`` (or
``report.py --out``).  For every workload and end-to-end metric the table
gives each side's median and quartiles over its untraced runs, the change
of the median as a share of the base median (positive = worse), and a
status against the metric's bound in ``BENCHMARK.json``:

* ``regressed``: worse by more than the bound;
* ``improved``: better by more than the bound; when a side's quartile
  spread is wider than the bound, every change run must also read better
  than every base run, and the median must be better by more than the
  base's quartile spread;
* ``unresolved``: a side's quartile spread is wider than the bound, and
  the change is not such a gain;
* ``ok``: within the bound.

Per-layer metrics of the traced runs follow, medians only; they have no
bounds.  The tracing overhead is the traced minus the untraced wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

import run


def load(path: str) -> dict:
    """{(workload, trace): {metric: [values, one per run]}}."""
    out: dict = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            group = out[(rec["workload"], rec["trace"])]
            for name, value in rec["result"]["metrics"].items():
                group[name].append(value)
            group["error_rate"].append(rec["result"]["failed"]
                                       / rec["result"]["attempted"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def status(base: list[float], new: list[float], bound: float,
           better: str) -> tuple[float, str]:
    """(signed change of the median, positive = worse; status)."""
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    worse = sign * (nm - bm) / bm if bm else 0.0
    spread = max((b3 - b1) / bm if bm else 0.0, (n3 - n1) / nm if nm else 0.0)
    if spread > bound:
        all_better = max(sign * v for v in new) < min(sign * v for v in base)
        base_spread = (b3 - b1) / bm if bm else 0.0
        gain = all_better and -worse > max(base_spread, bound)
        return worse, "improved" if gain else "unresolved"
    if worse > bound:
        return worse, "regressed"
    if worse < -bound:
        return worse, "improved"
    return worse, "ok"


def fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:11.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(base: dict, new: dict, spec: dict) -> list[str]:
    lines = []
    workloads = [w["name"] for w in spec["workloads"]]
    for wl in workloads:
        a, b = base.get((wl, 0)), new.get((wl, 0))
        if a and b:
            lines.append(f"== {wl}: end to end (median [q1, q3] n)")
            for m in spec["end_to_end"]:
                name = m["name"]
                if name not in a or name not in b:
                    continue
                worse, st = status(a[name], b[name], m["bound"], m["better"])
                lines.append(f"  {name:<14} {m['unit']:<5} base {fmt(a[name])}"
                             f"  new {fmt(b[name])}  {worse:+.2%} "
                             f"(bound {m['bound']:.0%})  {st}")
            lines.append(f"  {'error_rate':<14} {'':<5} base "
                         f"{max(a['error_rate']):.3g}  new "
                         f"{max(b['error_rate']):.3g}")
        ta, tb = base.get((wl, 1)), new.get((wl, 1))
        if ta and tb:
            lines.append(f"== {wl}: per layer (median)")
            for m in spec["per_layer"]:
                name = m["name"]
                if name not in ta or name not in tb:
                    continue
                va = statistics.median(ta[name])
                vb = statistics.median(tb[name])
                rel = f"{(vb - va) / va:+.1%}" if va else ""
                lines.append(f"  {name:<40} {m['unit']:<6} {va:12.5g} "
                             f"{vb:12.5g} {rel}")
        for label, side in (("base", base), ("new", new)):
            u, t = side.get((wl, 0)), side.get((wl, 1))
            if u and t and "wall_s" in u and "trace.wall_s" in t:
                over = (statistics.median(t["trace.wall_s"])
                        - statistics.median(u["wall_s"]))
                lines.append(f"  tracing overhead ({label}): {over:+.3f} s")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    lines = compare(load(args.base), load(args.new), run.load_spec())
    print("\n".join(lines) if lines else "no workload in both sets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
