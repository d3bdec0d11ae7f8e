"""Complete Bell polynomials.

B_n(x_1, ..., x_n) turns the derivatives of an exponent g into derivatives
of exp(g):

    d^n/ds^n exp(g(s)) = exp(g(s)) * B_n(g'(s), g''(s), ..., g^(n)(s)).

The first few are B_0 = 1, B_1 = x1, B_2 = x1^2 + x2,
B_3 = x1^3 + 3 x1 x2 + x3.
"""

from __future__ import annotations

import math
from typing import Sequence


def complete_bell_sequence(x: Sequence[float]) -> list[float]:
    """All of B_0 .. B_n evaluated at x = (x_1, ..., x_n).

    Uses the recurrence B_{k} = sum_{j=0}^{k-1} C(k-1, j) x_{j+1} B_{k-1-j},
    which needs O(n^2) multiplies and is exact for integer inputs.
    """
    b = [1.0]
    for k in range(1, len(x) + 1):
        b.append(math.fsum(
            math.comb(k - 1, j) * x[j] * b[k - 1 - j] for j in range(k)))
    return b

