import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from greenfcc import j_integral
from greenfcc.basic_integrals import IntegralTable, shared_table


def quad_oracle(n: int, k: int) -> float:
    """Adaptive 1D quadrature of the defining integral, independent route."""
    value, err = quad(
        lambda x: math.cos(k * x) * math.cos(x) ** n,
        0.0,
        math.pi,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    return value


def closed_form(n: int, k: int) -> float:
    if k > n or (n + k) % 2:
        return 0.0
    return math.pi * math.comb(n, (n - k) // 2) / 2.0**n


@pytest.fixture
def table() -> IntegralTable:
    return IntegralTable(64)


class TestCosinePowerIntegral:
    """I_n, the integral of cos^n(x), is J_n(0)."""

    def test_frozen_values(self, table):
        assert table.j_value(0, 0) == math.pi
        assert table.j_value(1, 0) == 0.0
        assert table.j_value(2, 0) == pytest.approx(math.pi / 2, rel=1e-15)
        assert table.j_value(8, 0) == pytest.approx(
            35 * math.pi / 128, rel=1e-15
        )

    def test_odd_orders_exactly_zero(self, table):
        for n in range(1, 60, 2):
            assert table.j_value(n, 0) == 0.0

    def test_against_quadrature(self, table):
        for n in range(0, 21):
            assert table.j_value(n, 0) == pytest.approx(
                quad_oracle(n, 0), abs=1e-12
            )

    def test_gamma_quotient_route(self, table):
        # sqrt(pi) Gamma((n+1)/2) / Gamma(n/2 + 1) is the other printed form
        for n in range(0, 40, 2):
            want = math.sqrt(math.pi) * math.gamma((n + 1) / 2) / math.gamma(n / 2 + 1)
            assert table.j_value(n, 0) == pytest.approx(want, rel=1e-13)


class TestCosineProductIntegral:
    """L_n(k), the integral of cos(kx) cos^n(x), is J_n(k)."""

    def test_frozen_values(self, table):
        assert table.j_value(2, 2) == pytest.approx(math.pi / 4, rel=1e-15)
        assert table.j_value(4, 2) == pytest.approx(math.pi / 4, rel=1e-15)
        assert table.j_value(1, 3) == 0.0

    def test_collapses_to_power_integral_at_k1(self, table):
        # cos(x) cos^n(x) = cos^(n+1)(x): J_n(1) = J_(n+1)(0), bit for bit,
        # since C(n+1, (n+1)/2) / 2^(n+1) = C(n, (n-1)/2) / 2^n exactly
        for n in range(0, 20):
            assert table.j_value(n, 1) == table.j_value(n + 1, 0)

    def test_against_quadrature(self, table):
        for n in range(0, 16):
            for k in range(2, 16):
                assert table.j_value(n, k) == pytest.approx(
                    quad_oracle(n, k), abs=1e-12
                )


class TestJIntegral:
    def test_zero_rules_are_exact(self):
        for n in range(41):
            for k in range(41):
                if k > n or (n + k) % 2:
                    assert j_integral(n, k) == 0.0

    def test_branch_examples(self):
        assert j_integral(3, 5) == 0.0
        assert j_integral(4, 0) == pytest.approx(3 * math.pi / 8, rel=1e-15)
        assert j_integral(3, 1) == pytest.approx(3 * math.pi / 8, rel=1e-15)
        # parity zero beats the k=1 branch
        assert j_integral(2, 1) == 0.0

    def test_closed_form_everywhere(self):
        for n in range(41):
            for k in range(n % 2, n + 1, 2):
                assert j_integral(n, k) == pytest.approx(
                    closed_form(n, k), rel=1e-12
                )

    def test_against_quadrature(self):
        for n in range(0, 14):
            for k in range(0, 14):
                assert j_integral(n, k) == pytest.approx(quad_oracle(n, k), abs=1e-12)

    @given(st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_non_negative(self, n, k):
        assert j_integral(n, k) >= 0.0

    def test_repeat_lookups_bit_identical(self):
        first = j_integral(17, 9)
        assert j_integral(17, 9) == first


class TestIntegralTable:
    def test_cap_enforced(self):
        table = IntegralTable(10)
        with pytest.raises(ValueError):
            table.j_value(11, 1)

    @pytest.mark.parametrize("max_n", [64.0, True, -1])
    def test_max_n_must_be_a_non_negative_int(self, max_n):
        with pytest.raises(ValueError):
            IntegralTable(max_n)

    def test_selection_rules_before_cap(self):
        # odd k+n and k > n are exact zeros even past the cap
        table = IntegralTable(10)
        assert table.j_value(11, 2) == 0.0
        assert table.j_value(12, 14) == 0.0

    def test_values_independent_of_table_size(self):
        small, big = IntegralTable(64), IntegralTable(1300)
        for n in range(65):
            for k in range(n + 3):
                assert small.j_value(n, k) == big.j_value(n, k), (n, k)

    def test_shared_table_growth(self):
        small = shared_table(8)
        big = shared_table(64)
        assert big.max_n >= 64
        assert big.j_value(5, 3) == small.j_value(5, 3)

    def test_j_value_is_the_rounded_closed_form(self):
        # J_n(k) = pi * C(n, (n-k)/2) / 2^n, bit for bit: both the exact
        # quotient and the product with pi are rounded once
        table = shared_table(1300)
        for k in [*range(9), 24, 40]:
            for n in range(k, 1201, 2):
                want = math.pi * (math.comb(n, (n - k) // 2) / (1 << n))
                assert table.j_value(n, k) == want, (n, k)
