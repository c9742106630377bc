"""Count tables, the type-class bound and the tail exponents."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlf.empirical import count_log_table, tail_exponents, type_class_log_bound
from vlf.errors import VlfError


class TestCountLogTable:
    def test_values_and_zero_convention(self):
        tbl = count_log_table(10)
        assert tbl.shape == (11,)
        assert tbl[0] == 0.0
        assert tbl[1] == 0.0
        assert tbl[3] == pytest.approx(3 * math.log(3))


class TestTailExponents:
    def test_known_alphabet_values(self):
        assert tail_exponents(2, 2) == (0.0, 1.0)
        assert tail_exponents(2, 3) == (0.5, 1.5)
        assert tail_exponents(3, 3) == (2.0, 3.0)

    def test_monotone_in_alphabet_size(self):
        k1, d1 = tail_exponents(2, 2)
        k2, d2 = tail_exponents(4, 4)
        assert k2 > k1 and d2 > d1

    def test_degenerate_alphabets_raise(self):
        with pytest.raises(VlfError):
            tail_exponents(1, 2)


class TestTypeClassBound:
    @given(
        st.integers(2, 12),
        st.lists(st.floats(0.05, 1.0), min_size=2, max_size=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_bound_dominates_exact_multinomial_count(self, n, weights):
        # realize an integer composition of n from the weights
        w = np.array(weights)
        k0 = int(round(n * w[0] / w.sum()))
        counts = np.array([k0, n - k0])
        probs = counts / n
        exact = math.lgamma(n + 1) - sum(math.lgamma(c + 1) for c in counts)
        assert type_class_log_bound(probs, n) >= exact - 1e-9
