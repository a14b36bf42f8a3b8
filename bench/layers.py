"""Per-layer instrumentation of the casimir_spheres call chain.

Layers are named after the package modules::

    cli -> thermo -> matsubara -> roundtrip -> translation / scattering
        -> specfun

``install`` wraps the module attributes at each layer boundary with spans of
a :class:`spans.Tracer`.  Tables are traced through
``DeterminantTable.__post_init__``: ``thermo`` binds the class itself at
import time, so only a method of the class is seen by every caller.  The
lru-cache hit ratios come from ``cache_info()`` deltas over the run.
``thermo.tables_per_sweep`` counts table builds per ``cli.main`` call (a
figure builds one, a numeric sweep four).  ``matsubara.free_energy`` is
seen where the benchmark calls it (``points``); ``thermo`` binds its own
reference at import and uses it only in finite-difference helpers that no
workload runs.

Two metrics are computed from call arguments, not measured:

* ``translation.coupling.mbytes_built``: 2 tensors of n * n * p_len float64
  per tensor build, with n = l_max - l0 + 1 and p_len = 2 l_max + 2;
* ``roundtrip.gflop_computed``: the two p-contractions of the A~ assembly,
  4 n^2 p_len nq flops, plus the product N = L R of the block log-det,
  2 (2n)^3 nq flops, with nq the number of frequencies in the call.
"""

from __future__ import annotations

from spans import Patches, Tracer

SPECFUN_LADDERS = ("log_scaled_iv_ladder_vec", "log_scaled_kv_ladder_vec",
                   "log_khat_spherical_ladder_vec")


class LayerTrace:
    """Spans and counters installed on the package for one traced run."""

    def __init__(self):
        self.tracer = Tracer()
        self.patches = Patches()
        self._cache0 = {}

    def install(self) -> None:
        from casimir_spheres import (cli, matsubara, roundtrip, scattering,
                                     specfun, thermo, translation)
        tr, p = self.tracer, self.patches

        for attr in SPECFUN_LADDERS:
            p.set(specfun, attr, tr.wrap("specfun.ladder",
                                          getattr(specfun, attr)))
        p.set(scattering, "t_scaled_log_vec",
              tr.wrap("scattering.tmatrix", scattering.t_scaled_log_vec))

        p.set(translation, "coupling_tensors",
              tr.wrap("translation.coupling", translation.coupling_tensors))
        build = translation._coupling_tensors_impl

        def counted_build(m, l0, l_max):
            n = l_max - l0 + 1
            tr.add("coupling_bytes", 2 * 8 * n * n * (2 * l_max + 2))
            return build(m, l0, l_max)
        p.set(translation, "_coupling_tensors_impl", counted_build)

        def assembly_flops(args, _):
            m, l0, l_max, q = args[:4]
            n = l_max - l0 + 1
            tr.add("flops", 4.0 * n * n * (2 * l_max + 2) * len(q))
        p.set(roundtrip, "_atilde_batch",
              tr.wrap("roundtrip.assembly", roundtrip._atilde_batch,
                      assembly_flops))

        def block_flops(args, _):
            m, l_max, q = args[:3]
            dim = 2 * (l_max - max(1, m) + 1)
            tr.add("flops", 2.0 * dim**3 * len(q))
            tr.add("freq_blocks", len(q))
        p.set(roundtrip, "_block_logdets",
              tr.wrap("roundtrip.blocks", roundtrip._block_logdets,
                      block_flops))

        def batch_counts(args, result):
            nq = len(args[1])
            tr.add("freqs", nq)
            tr.add("m_blocks", result[1] + 1)
            if tr.active("matsubara.table"):
                tr.add("table_freqs", nq)
            if tr.active("matsubara.ladder"):
                tr.maximum("max_l_probed", args[2])
        p.set(roundtrip, "logdet_batch",
              tr.wrap("roundtrip.logdet_batch", roundtrip.logdet_batch,
                      batch_counts))

        p.set(matsubara, "_converged_l_max",
              tr.wrap("matsubara.ladder", matsubara._converged_l_max,
                      lambda args, result: tr.maximum("l_max_chosen",
                                                      result[0])))
        p.set(matsubara.DeterminantTable, "__post_init__",
              tr.wrap("matsubara.table",
                      matsubara.DeterminantTable.__post_init__))
        p.set(matsubara, "free_energy",
              tr.wrap("matsubara.free_energy", matsubara.free_energy,
                      lambda args, result: tr.add("terms",
                                                  result.n_terms_used)))

        p.set(thermo, "build_thermo_curve",
              tr.wrap("thermo.curve", thermo.build_thermo_curve))
        p.set(thermo, "scan_entropy_features",
              tr.wrap("thermo.scan", thermo.scan_entropy_features))
        p.set(cli, "main", tr.wrap("cli", cli.main))

        self._cache0 = {
            "coupling": translation._coupling_tensors_cached.cache_info(),
            "static": matsubara._static_term_cached.cache_info(),
        }

    def uninstall(self) -> None:
        self.patches.undo()

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything run since :meth:`install`."""
        from casimir_spheres import matsubara, translation
        tr = self.tracer
        c = tr.counters
        coupling = _delta(self._cache0["coupling"],
                          translation._coupling_tensors_cached.cache_info())
        static = _delta(self._cache0["static"],
                        matsubara._static_term_cached.cache_info())
        coupling_calls = tr.calls("translation.coupling")
        chosen = c.get("l_max_chosen", 0)
        probed = c.get("max_l_probed", 0)
        cli_calls = tr.calls("cli")
        matsubara_spans = ("matsubara.ladder", "matsubara.table",
                           "matsubara.free_energy")
        out = {
            "specfun.ladder.calls": tr.calls("specfun.ladder"),
            "specfun.ladder.self_s": tr.self_s("specfun.ladder"),
            "scattering.tmatrix.calls": tr.calls("scattering.tmatrix"),
            "scattering.tmatrix.self_s": tr.self_s("scattering.tmatrix"),
            "translation.coupling.calls": coupling_calls,
            "translation.coupling.self_s": tr.self_s("translation.coupling"),
            "translation.coupling.cache_hit_ratio":
                coupling[0] / coupling_calls if coupling_calls else 0.0,
            "translation.coupling.mbytes_built":
                c.get("coupling_bytes", 0) / 1e6,
            "roundtrip.assembly.calls": tr.calls("roundtrip.assembly"),
            "roundtrip.assembly.self_s": tr.self_s("roundtrip.assembly"),
            "roundtrip.blocks.self_s": tr.self_s("roundtrip.blocks"),
            "roundtrip.blocks.freq_blocks": int(c.get("freq_blocks", 0)),
            "roundtrip.logdet_batch.calls": tr.calls("roundtrip.logdet_batch"),
            "roundtrip.logdet_batch.self_s":
                tr.self_s("roundtrip.logdet_batch"),
            "roundtrip.logdet_batch.freqs": int(c.get("freqs", 0)),
            "roundtrip.logdet_batch.m_blocks": int(c.get("m_blocks", 0)),
            "roundtrip.gflop_computed": c.get("flops", 0.0) / 1e9,
            "matsubara.ladder.calls": tr.calls("matsubara.ladder"),
            "matsubara.ladder.total_s": tr.total_s("matsubara.ladder"),
            "matsubara.ladder.max_l_probed": probed,
            "matsubara.l_max_chosen": chosen,
            "matsubara.ladder.overshoot": probed / chosen if chosen else 0.0,
            "matsubara.table.calls": tr.calls("matsubara.table"),
            "matsubara.table.total_s": tr.total_s("matsubara.table"),
            "matsubara.table.freqs": int(c.get("table_freqs", 0)),
            "matsubara.free_energy.calls": tr.calls("matsubara.free_energy"),
            "matsubara.free_energy.terms": int(c.get("terms", 0)),
            "matsubara.static.calls": static[0] + static[1],
            "matsubara.static.cache_hit_ratio":
                static[0] / (static[0] + static[1]) if any(static) else 0.0,
            "matsubara.self_s": sum(tr.self_s(n) for n in matsubara_spans),
            "thermo.curve.total_s": tr.total_s("thermo.curve"),
            "thermo.scan.total_s": tr.total_s("thermo.scan"),
            "thermo.tables_per_sweep":
                tr.calls("matsubara.table") / cli_calls if cli_calls else 0.0,
            "thermo.self_s": (tr.self_s("thermo.curve")
                              + tr.self_s("thermo.scan")),
            "cli.self_s": tr.self_s("cli"),
            "trace.wall_s": wall_s,
            "trace.unattributed_s": max(wall_s - tr.covered, 0.0),
        }
        return out


def _delta(before, after) -> tuple[int, int]:
    """(hits, misses) of an lru cache between two ``cache_info()`` calls."""
    return after.hits - before.hits, after.misses - before.misses
