"""One benchmark repetition in a fresh interpreter, started by ``run.py``.

Every repetition starts with cold caches, as a CLI user's does: the coupling
and static-term lru caches are refilled on every invocation.  The worker
imports the package from ``src/`` of the checkout, makes the workload's
inputs from the seed, runs the operations one after another, checks every
output, and prints one JSON object as its last line of standard output.

``--setup-only`` stops after the imports and the inputs; ``--t-spawn`` is
the parent's ``time.monotonic()`` just before it started this process, so
set-up time covers the interpreter start as well.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    with open("/proc/self/maps") as fh:
        paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu() -> dict:
    model = None
    with open("/proc/cpuinfo") as fh:
        for ln in fh:
            if ln.startswith("model name"):
                model = ln.split(":", 1)[1].strip()
                break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        def read(name):
            with open(os.path.join(base, idx, name)) as fh:
                return fh.read().strip()
        try:
            level, kind, size = read("level"), read("type"), read("size")
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = size
    return {"model": model, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), **caches}


def environment() -> dict:
    """Interpreter, libraries, BLAS and CPU of this process."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
        **_cpu(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import casimir_spheres  # noqa: F401
    from casimir_spheres import cli  # noqa: F401
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    setup_s = time.monotonic() - args.t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "env": environment()}))
        return 0
    out = {"setup_s": setup_s}

    layer = None
    if args.trace:
        from layers import LayerTrace
        layer = LayerTrace()
        layer.install()
    latencies, outputs = [], []
    t0 = time.perf_counter()
    for inp in inputs:
        t = time.perf_counter()
        try:
            res = wl.run(inp)
        except Exception as exc:  # counted as a failed operation
            res = exc
        latencies.append(time.perf_counter() - t)
        outputs.append(res)
    wall_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if layer is not None:
        out["layers"] = layer.metrics(wall_s)
        layer.uninstall()

    ref = workloads.load_reference(args.workload, args.seed)
    failures = []
    for i, (inp, res) in enumerate(zip(inputs, outputs)):
        if isinstance(res, Exception):
            errors = [f"raised {res!r}"]
        else:
            try:
                errors = wl.check(i, inp, res, ref)
            except Exception as exc:  # a check that cannot run fails the op
                errors = [f"check raised {exc!r}"]
        if errors:
            failures.append({"op": i, "errors": errors})
    out.update({"wall_s": wall_s, "latencies_s": latencies,
                "peak_rss_mb": rss_mb, "attempted": len(inputs),
                "failures": failures, "reference_checked": ref is not None})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
