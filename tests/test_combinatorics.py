import math

import numpy as np
import pytest

from greenfcc.combinatorics import binomial_table


class TestBinomialTable:
    def test_matches_comb(self):
        table = binomial_table(40)
        for i in range(41):
            for j in range(41):
                want = float(math.comb(i, j)) if j <= i else 0.0
                assert table[i, j] == want

    def test_read_only(self):
        table = binomial_table(10)
        with pytest.raises(ValueError):
            table[0, 0] = 2.0

    def test_large_orders_stay_finite(self):
        table = binomial_table(1000)
        assert np.isfinite(table).all()
        assert table[1000, 500] == pytest.approx(
            math.comb(1000, 500), rel=1e-15
        )
