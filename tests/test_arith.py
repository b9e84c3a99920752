import pytest
from hypothesis import given
from hypothesis import strategies as st

from collatz_cover import BudgetExceededError, sigma_infinity, two_adic_valuation
from oracles import unit_step_sigma, valuation_by_division

odd_ints = st.integers(min_value=0, max_value=10**30).map(lambda k: 2 * k + 1)


def test_valuation_examples():
    assert two_adic_valuation(40) == (3, 5)
    assert two_adic_valuation(2) == (1, 1)
    assert two_adic_valuation(262144) == (18, 1)


@pytest.mark.parametrize("bad", [0, -4, 1, 5, 99])
def test_valuation_rejects_nonpositive_or_odd(bad):
    with pytest.raises(ValueError):
        two_adic_valuation(bad)


@given(st.integers(min_value=1, max_value=10**30))
def test_valuation_reconstructs(k):
    x = 2 * k
    m, odd = two_adic_valuation(x)
    assert m >= 1 and odd & 1
    assert odd << m == x
    assert (m, odd) == valuation_by_division(x)


def test_sigma_examples():
    assert sigma_infinity(13) == 9
    assert sigma_infinity(5) == 5
    assert sigma_infinity(1) == 0
    assert sigma_infinity(27) == 111
    assert sigma_infinity(19) == 20
    assert sigma_infinity(40) == 8  # 3 halvings plus sigma(5)


def test_sigma_rejects_nonpositive():
    with pytest.raises(ValueError):
        sigma_infinity(0)
    with pytest.raises(ValueError):
        sigma_infinity(-7)
    with pytest.raises(ValueError):
        sigma_infinity(5, budget=0)


def test_sigma_matches_unit_step_oracle():
    for n in range(1, 600):
        assert sigma_infinity(n) == unit_step_sigma(n), n


def test_sigma_recurrence_sampled():
    for d in range(3, 2002, 2):
        m, target = two_adic_valuation(3 * d + 1)
        assert sigma_infinity(d) == sigma_infinity(target) + m + 1


def test_budget_boundary():
    assert sigma_infinity(27, budget=111) == 111
    with pytest.raises(BudgetExceededError, match="budget exceeded"):
        sigma_infinity(27, budget=110)


def test_budget_counts_the_halvings_of_even_inputs():
    assert sigma_infinity(2**20, budget=20) == 20
    with pytest.raises(BudgetExceededError):
        sigma_infinity(2**20, budget=19)
    with pytest.raises(BudgetExceededError):
        sigma_infinity(2 * 27, budget=111)


@given(odd_ints)
def test_four_d_plus_one_shares_target(d):
    # 3(4d+1)+1 = 4(3d+1): two more halvings to the same target
    m, target = two_adic_valuation(3 * d + 1)
    assert two_adic_valuation(12 * d + 4) == (m + 2, target)


def test_four_d_plus_one_sigma_shift():
    for d in range(3, 2002, 2):
        assert sigma_infinity(4 * d + 1) == sigma_infinity(d) + 2


def test_four_d_plus_one_sigma_shift_fails_only_at_the_fixed_point():
    # the shift follows from sigma(d) = sigma(target) + m + 1, which needs
    # d > 1: sigma(1) = 0 by the termination convention, so d = 1 is the one
    # odd value where sigma(4d+1) != sigma(d) + 2
    assert sigma_infinity(5) == 5
    assert sigma_infinity(1) + 2 == 2
