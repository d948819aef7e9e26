import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenfcc import PartialSumSequence, aitken_delta2, wynn_epsilon_with_estimate


def geometric_sums(a: float, r: float, count: int) -> list[float]:
    total, out = 0.0, []
    term = a
    for _ in range(count):
        total += term
        out.append(total)
        term *= r
    return out


class TestWynnEpsilon:
    def test_half_geometric_example(self):
        seq = PartialSumSequence([1.0, 1.5, 1.75, 1.875, 1.9375])
        assert wynn_epsilon_with_estimate(seq)[0] == pytest.approx(2.0, abs=1e-14)

    def test_constant_sequence(self):
        seq = PartialSumSequence([3.25, 3.25, 3.25])
        assert wynn_epsilon_with_estimate(seq)[0] == 3.25

    def test_short_sequences_pass_through(self):
        assert wynn_epsilon_with_estimate(PartialSumSequence([4.0]))[0] == 4.0
        assert wynn_epsilon_with_estimate(PartialSumSequence([4.0, 5.0]))[0] == 5.0

    def test_estimate_shrinks_on_geometric(self):
        seq = PartialSumSequence(geometric_sums(1.0, 0.7, 14))
        value, estimate = wynn_epsilon_with_estimate(seq)
        limit = 1.0 / 0.3
        assert value == pytest.approx(limit, rel=1e-12)
        assert estimate < 1e-8

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=-0.9, max_value=0.9).filter(lambda r: abs(r) > 1e-3),
    )
    @settings(max_examples=150, deadline=None)
    # inputs where the table used to deepen past a settled column into
    # rounding noise (relative errors 3.3e-10 and 0.22)
    @example(5.533553810008787, -0.0042664206804989835)
    @example(8.314263050577763, 0.7168127930780602)
    def test_geometric_family_recovered(self, a, r):
        # contractual exactness bar: 12 terms, |r| <= 0.9, relative 1e-12
        seq = PartialSumSequence(geometric_sums(a, r, 12))
        limit = a / (1.0 - r)
        assert wynn_epsilon_with_estimate(seq)[0] == pytest.approx(limit, rel=1e-12)

    @pytest.mark.parametrize(
        "sums, step",
        [
            ([0.0, 1.0, 2.0, 3.0], 1.0),  # table stops before its second even column
            ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], 1.0),
            ([1.0, 1.0, 1.5], 0.5),  # fewer than three distinct sums
            ([2.0, 2.0, 2.0], math.inf),  # one distinct sum: nothing to compare
        ],
    )
    def test_estimate_never_zero_without_a_second_column(self, sums, step):
        value, estimate = wynn_epsilon_with_estimate(PartialSumSequence(sums))
        assert value == sums[-1]
        assert estimate == step

    def test_zero_difference_stops_the_table(self):
        # equal neighbours inside the second column used to return the entry
        # where they meet, -1.5, built from the first four sums only, as if
        # it were a deeper even column
        sums = [-2.0, -1.0, -2.0, -1.0, -2.0, 0.0]
        value, estimate = wynn_epsilon_with_estimate(PartialSumSequence(sums))
        assert value == pytest.approx(-4.0 / 3.0, rel=1e-15)
        assert estimate == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_two_component_exponential(self):
        sums = [
            5.0 - 2.0 * 0.5**k - 1.0 * 0.25**k for k in range(12)
        ]
        seq = PartialSumSequence(sums)
        assert wynn_epsilon_with_estimate(seq)[0] == pytest.approx(5.0, rel=1e-11)


class TestAitken:
    def test_single_step_example(self):
        assert aitken_delta2(PartialSumSequence([1.0, 1.5, 1.75])) == pytest.approx(
            2.0, abs=1e-14
        )

    def test_constant_sequence(self):
        assert aitken_delta2(PartialSumSequence([2.5, 2.5, 2.5])) == 2.5

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=-0.9, max_value=0.9).filter(lambda r: abs(r) > 1e-3),
    )
    @settings(max_examples=150, deadline=None)
    def test_geometric_family_recovered(self, a, r):
        seq = PartialSumSequence(geometric_sums(a, r, 12))
        limit = a / (1.0 - r)
        assert aitken_delta2(seq) == pytest.approx(limit, rel=1e-12)


class TestPartialSumSequence:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PartialSumSequence([])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PartialSumSequence([1.0, math.inf])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_transforms_total_on_any_finite_input(self, sums):
        seq = PartialSumSequence(sums)
        assert math.isfinite(wynn_epsilon_with_estimate(seq)[0])
        assert math.isfinite(aitken_delta2(seq))
