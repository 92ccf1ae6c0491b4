"""Closed-form threshold quantities for clique-free graph phase transitions.

For an integer r >= 2 (the forbidden clique is K_{r+1}) define

    theta(r) = (r-1)/(2r) * [ r * ((2r+2)/(r+2))^(1/(r-1)) ]^(2/(r+2))

and the two equivalent descriptions of the colorability threshold,

    m_r(n) = theta(r) * n^(2 - 2/(r+2)) * (log n)^(1/(C(r+1,2)-1)),
    p_r(n) = [ (2 - 2/(r+2)) * log n * (r/n)^(r-1) ]^(1/(C(r+1,2)-1)),

linked by the identity m_r = (1 - 1/r) * (n^2/2) * p_r.  All logs are
natural.  The odd-cycle analogue for cycle length parameter ell >= 2 is

    t_ell(n) = ( (ell/(ell-1)) * (n/2)^ell * log n )^(1/(ell-1)).

Everything here is evaluated in double precision; tests cross-check the
constants against an independent arbitrary-precision evaluation.  These
are real functions of n, so non-integer n is accepted (the CLI rounds
only for display).
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["theta", "m_r", "p_r", "t_ell"]


def _check_r(r: int) -> None:
    if r < 2:
        raise DomainError(f"r={r}: the clique parameter r must be at least 2")


def _check_n(n: float) -> None:
    # n >= 3 guarantees log n > 1, keeping every fractional power of the
    # log factor monotone; below that the formulas leave their log-domain.
    if n < 3:
        raise DomainError(
            f"n={n}: threshold formulas need n >= 3 (log-domain: the "
            f"(log n)^(1/(C(r+1,2)-1)) factor requires log n >= 1)"
        )


def theta(r: int) -> float:
    """The threshold constant; theta(2) equals sqrt(3)/4."""
    _check_r(r)
    return (r - 1) / (2 * r) * (r * ((2 * r + 2) / (r + 2)) ** (1 / (r - 1))) ** (
        2 / (r + 2)
    )


def m_r(n: float, r: int) -> float:
    """Edge-count threshold at which r-colorability of K_{r+1}-free graphs kicks in."""
    _check_r(r)
    _check_n(n)
    c = math.comb(r + 1, 2)
    return theta(r) * n ** (2 - 2 / (r + 2)) * math.log(n) ** (1 / (c - 1))


def p_r(n: float, r: int) -> float:
    """Density form of the threshold: the positive p solving
    (n/r)^(r-1) * p^(C(r+1,2)-1) = (2 - 2/(r+2)) * log n."""
    _check_r(r)
    _check_n(n)
    c = math.comb(r + 1, 2)
    return ((2 - 2 / (r + 2)) * math.log(n) * (r / n) ** (r - 1)) ** (1 / (c - 1))


def t_ell(n: float, ell: int) -> float:
    """Threshold for the odd-cycle variant with cycle parameter ell.

    The exponent 1/(ell-1) is undefined at ell=1, so that value is a
    domain error rather than a limit.
    """
    if ell <= 1:
        raise DomainError(f"ell={ell}: need ell >= 2 (exponent 1/(ell-1) undefined)")
    _check_n(n)
    return ((ell / (ell - 1)) * (n / 2) ** ell * math.log(n)) ** (1 / (ell - 1))
