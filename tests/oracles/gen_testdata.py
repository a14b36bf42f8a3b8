"""Regenerate the golden oracle files under tests/testdata.

Run from the repository root:

    python tests/oracles/gen_testdata.py

Slow (minutes): every value is recomputed in high-precision arithmetic.
The files are versioned; bump ``SCHEMA`` when the case lists change.  A
determinant case may set ``dps`` (the oracle's working digits) and
``rtol`` (its test's relative tolerance, 2e-10 when absent).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from oracles.bessel import oracle_bessel
from oracles.summand import oracle_eq_summand
from oracles.pfa_sum import oracle_pfa_double_sum
from oracles.determinant import logdet_oracle
import mpmath as mp

SCHEMA = 1
OUT = Path(__file__).resolve().parent.parent / "testdata"


def gen_bessel():
    cases = []
    xs = np.geomspace(1e-4, 50.0, 100)
    for l in range(0, 21):
        for x in xs:
            x_str = f"{x:.17g}"
            i_res, k_res = oracle_bessel(l, x_str, digits=30)
            cases.append({"l": l, "x": float(x_str), "x_str": x_str,
                          "i_scaled": i_res.value, "k_scaled": k_res.value})
    payload = {"schema": SCHEMA, "digits": 30,
               "method": "finite closed-form half-integer sums (mpmath)",
               "cases": cases}
    (OUT / "bessel_oracle.json").write_text(json.dumps(payload))
    print(f"bessel_oracle.json: {len(cases)} cases")


def gen_summand():
    cases = []
    for q in (1.0, 5.0, 20.0):
        for r in (0.01, 0.1, 0.3):
            res = oracle_eq_summand(q, r, digits=30)
            cases.append({"q": q, "r": r, "value": res.value})
    payload = {"schema": SCHEMA, "digits": 30,
               "method": "reverse-engineered dipole summand (mpmath)",
               "cases": cases}
    (OUT / "dipole_summand_oracle.json").write_text(json.dumps(payload))
    print(f"dipole_summand_oracle.json: {len(cases)} cases")


def gen_pfa():
    cases = []
    for x in np.geomspace(1e-3, 50.0, 20):
        res = oracle_pfa_double_sum(float(x), digits=30)
        cases.append({"x": float(x), "value": res.value})
    payload = {"schema": SCHEMA, "digits": 30,
               "method": "brute-force double sum (mpmath)", "cases": cases}
    (OUT / "pfa_oracle.json").write_text(json.dumps(payload))
    print(f"pfa_oracle.json: {len(cases)} cases")


DETERMINANT_SPECS = [
    {"r": 0.3, "q": 1.0, "l_max": 4, "m_values": None},
    {"r": 0.45, "q": 1.0, "l_max": 5, "m_values": None},
    {"r": 0.45, "q": 0.05, "l_max": 5, "m_values": None},
    {"r": 0.1, "q": 3.0, "l_max": 4, "m_values": None},
    {"r": 0.45, "q": 1.0, "l_max": 12, "m_values": [0]},
    {"r": 0.45, "q": 1.0, "l_max": 12, "m_values": [3]},
    {"r": 0.4, "q": 0.02, "l_max": 10, "m_values": [0]},
    {"r": 0.4, "q": 8.0, "l_max": 10, "m_values": [1]},
    # near-static with many multipoles, where the unscaled p-sum terms
    # leave the float64 range; the unscaled N spans so many decades that
    # its LU needs extra digits (the l_max 40 case gives -inf at 100)
    {"r": 0.45, "q": 1e-3, "l_max": 32, "m_values": [10], "dps": 100},
    {"r": 0.45, "q": 1e-3, "l_max": 32, "m_values": [20], "dps": 100},
    {"r": 0.45, "q": 1e-2, "l_max": 40, "m_values": [1], "dps": 200},
    # ||N||_F = 0.018, where a six-term trace series of log det(I - N)
    # is off by 1.4e-12 relative; checked at its own tighter rtol
    {"r": 0.41, "q": 3.0, "l_max": 16, "m_values": [0], "dps": 60,
     "rtol": 1e-13},
    # q = 0, the static limit, over the whole m-sum at the l_max of close-
    # separation tables; at l_max 40 the LU loses every digit at 40 dps
    # and agrees to 25 digits at 80 and 120
    *({"r": r, "q": 0.0, "l_max": l_max, "m_values": None, "dps": dps,
       "rtol": 1e-12}
      for r in (0.4, 0.45, 0.48) for l_max, dps in ((20, 50), (40, 120))),
]


def determinant_case(spec: dict) -> dict:
    with mp.workdps(spec.get("dps", mp.mp.dps)):
        val = logdet_oracle(spec["r"], spec["q"], spec["l_max"],
                            m_values=spec["m_values"])
    return {**spec, "value": mp.nstr(val, 25)}


def gen_determinant():
    cases = []
    for spec in DETERMINANT_SPECS:
        cases.append(determinant_case(spec))
        print("  det case done:", spec)
    payload = {"schema": SCHEMA, "digits": 25,
               "method": "direct unscaled assembly (mpmath + exact Wigner)",
               "cases": cases}
    (OUT / "determinant_oracle.json").write_text(json.dumps(payload))
    print(f"determinant_oracle.json: {len(cases)} cases")


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    gen_bessel()
    gen_summand()
    gen_pfa()
    gen_determinant()
