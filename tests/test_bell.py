import math

import pytest

from xroad.bell import complete_bell_sequence

# B_n(1, 1, ..., 1) are the Bell numbers.
BELL_NUMBERS = [1, 1, 2, 5, 15, 52, 203, 877, 4140]

# Derivatives of exp(sin(s)) at s = 0.7, computed symbolically and frozen.
EXP_SIN_DERIVS = [1.9044965343867302583, 1.4566392950360746964,
                  -0.11281116823489048310, -3.4197076312743282377,
                  -4.5128990156576871607, 11.088395941029031742]
SIN_DERIVS = [0.76484218728448842626, -0.64421768723769105367,
              -0.76484218728448842626, 0.64421768723769105367,
              0.76484218728448842626]


def test_low_order_polynomials():
    x1, x2, x3 = 2.0, 3.0, 5.0
    seq = complete_bell_sequence([x1, x2, x3])
    assert seq[0] == 1.0
    assert seq[1] == x1
    assert seq[2] == pytest.approx(x1 ** 2 + x2)
    assert seq[3] == pytest.approx(x1 ** 3 + 3 * x1 * x2 + x3)


def test_bell_numbers():
    ones = [1.0] * 8
    assert complete_bell_sequence(ones) == BELL_NUMBERS


def test_frozen_symbolic_values():
    # B_1..B_4 at (1, 2, 3, 4), cross-checked symbolically.
    seq = complete_bell_sequence([1.0, 2.0, 3.0, 4.0])
    assert seq[1:] == [1.0, 3.0, 10.0, 41.0]


def test_exponential_composition():
    # d^n/ds^n exp(g(s)) = exp(g) * B_n(g', ..., g^(n)) for g = sin.
    scale = math.exp(math.sin(0.7))
    seq = complete_bell_sequence(SIN_DERIVS)
    for n, expected in enumerate(EXP_SIN_DERIVS):
        assert scale * seq[n] == pytest.approx(expected, rel=1e-12)


def test_complete_bell_single_value():
    assert complete_bell_sequence([])[-1] == 1.0
    assert complete_bell_sequence([7.0])[-1] == 7.0
