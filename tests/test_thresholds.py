"""Closed-form threshold formulas: frozen high-precision fixtures, the
m_r/p_r identity, and domain gates."""

import math

import mpmath
import pytest

from kfreelab import DomainError, ex_turan, m_r, p_r, t_ell, theta

# Frozen from a 40-digit mpmath evaluation of
#   theta_r = (r-1)/(2r) * [ r * ((2r+2)/(r+2))^(1/(r-1)) ]^(2/(r+2))
THETA_FIXTURES = {
    2: 0.4330127018922193,  # = sqrt(3)/4 exactly
    3: 0.5682654389358839,
    4: 0.6300395208867925,
}


def _theta_mp(r):
    with mpmath.workdps(40):
        rr = mpmath.mpf(r)
        inner = rr * ((2 * rr + 2) / (rr + 2)) ** (1 / (rr - 1))
        return (rr - 1) / (2 * rr) * inner ** (2 / (rr + 2))


def _m_r_mp(n, r):
    with mpmath.workdps(40):
        nn, rr = mpmath.mpf(n), mpmath.mpf(r)
        c = r * (r + 1) // 2
        return (
            _theta_mp(r)
            * nn ** (2 - 2 / (rr + 2))
            * mpmath.log(nn) ** (mpmath.mpf(1) / (c - 1))
        )


def test_theta2_is_sqrt3_over_4():
    assert abs(theta(2) - math.sqrt(3) / 4) < 1e-15


@pytest.mark.parametrize("r,expected", sorted(THETA_FIXTURES.items()))
def test_theta_frozen_fixtures(r, expected):
    assert theta(r) == pytest.approx(expected, rel=1e-14)
    # and the fixture itself against an independent arbitrary-precision route
    assert abs(float(_theta_mp(r)) - expected) < 1e-14


@pytest.mark.parametrize("r", range(2, 21))
def test_theta_in_unit_interval(r):
    assert 0 < theta(r) < 1


@pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_m_r_p_r_identity(n, r):
    # m_r = (1 - 1/r) * (n^2/2) * p_r  -- exact algebraically
    lhs = m_r(n, r)
    rhs = (1 - 1 / r) * (n * n / 2) * p_r(n, r)
    assert abs(lhs - rhs) / lhs < 1e-12


@pytest.mark.parametrize("n", [10**3, 10**4])
@pytest.mark.parametrize("r", [2, 3, 5])
def test_m_r_against_mpmath(n, r):
    assert m_r(n, r) == pytest.approx(float(_m_r_mp(n, r)), rel=1e-13)


def test_p_r_defining_relation():
    # p^(C(r+1,2)-1) = (2 - 2/(r+2)) * log n * (r/n)^(r-1)
    for n, r in [(10**3, 2), (10**4, 3), (10**5, 4)]:
        c = math.comb(r + 1, 2)
        lhs = p_r(n, r) ** (c - 1)
        rhs = (2 - 2 / (r + 2)) * math.log(n) * (r / n) ** (r - 1)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_m_r_monotone_in_n():
    vals = [m_r(n, 3) for n in range(10, 2000, 37)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_m_r_far_below_extremal(r):
    for n in (100, 1000, 10000):
        assert m_r(n, r) < ex_turan(n, r + 1)


def test_t_ell_fixture():
    # t_2(100) = (2 * 50^2 * log 100)^(1/1)
    assert t_ell(100, 2) == pytest.approx(2 * 2500 * math.log(100), rel=1e-14)
    # non-integer n accepted
    assert t_ell(50.5, 3) > 0


def test_t_ell_rejects_ell_at_most_one():
    with pytest.raises(DomainError, match="ell"):
        t_ell(100, 1)
    with pytest.raises(DomainError):
        t_ell(100, 0)


@pytest.mark.parametrize("fn", [m_r, p_r])
def test_log_domain_gate(fn):
    with pytest.raises(DomainError, match="log"):
        fn(2, 2)
    with pytest.raises(DomainError):
        fn(1, 2)
    with pytest.raises(DomainError):
        fn(0, 3)


def test_r_gate():
    with pytest.raises(DomainError, match="r="):
        theta(1)
    with pytest.raises(DomainError):
        m_r(1000, 1)

