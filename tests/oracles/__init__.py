"""Independent high-precision reference implementations, test-side only.

Nothing in here imports from ``casimir_spheres`` numerical kernels: Bessel
values come from explicit finite closed-form sums in mpmath arithmetic,
Wigner symbols from exact rational arithmetic (sympy), determinants from a
direct unscaled assembly.  Oracle values are frozen as decimal strings in
``tests/testdata`` by ``gen_testdata.py``.  The one exception is
``translation``: the physical translation block U, summed entry by entry
from the production coupling tensors, which production never forms.
"""

from .result import OracleResult
from .bessel import oracle_bessel
from .summand import oracle_eq_summand
from .pfa_sum import oracle_pfa_double_sum

__all__ = ["OracleResult", "oracle_bessel", "oracle_eq_summand",
           "oracle_pfa_double_sum"]
