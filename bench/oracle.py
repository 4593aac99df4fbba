"""Independent exact Riemann solver in mpmath, used as the benchmark's oracle.

It never calls the library under test.  Each system is written from its
textbook wave curves: the star value X (pressure, depth or area) is the
root of f_L(X) + f_R(X) + u_R - u_L, where a side's wave curve is the
Rankine-Hugoniot jump when X exceeds the side's value and the Riemann
invariant integral otherwise.  The root is found by plain bisection on
log X in 30-digit arithmetic, which is slow but has no stopping rule to
get wrong: it halves the bracket until it is narrower than 1e-20
relative.

Euler (Toro, ch. 4): c^2 = gamma p / rho; shock
f = (p - p_K) sqrt(A_K / (p + B_K)), A_K = 2 / ((gamma + 1) rho_K),
B_K = (gamma - 1) / (gamma + 1) p_K; rarefaction
f = 2 c_K / (gamma - 1) ((p / p_K)^((gamma - 1) / (2 gamma)) - 1).

Shallow water and blood flow are both of the form
A_t + (A u)_x = 0, (A u)_t + (A u^2 + F(A))_x = 0 with F(h) = g h^2 / 2
and F(A) = beta / (3 rho) A^(3/2).  The shock branch and shock speed
follow from the jump conditions in F; the rarefaction branch is the
integral of c(a) / a, with c^2 = g h or c^2 = sqrt(beta / (2 rho))^2 sqrt(A).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

import mpmath

DIGITS = 30
REL_WIDTH = mpmath.mpf("1e-20")

Side = Tuple[Callable, Callable, Callable]  # wave curve, eigen speed c, shock speed offset


def _euler(params: Dict[str, float], rho, u, p) -> Tuple[object, Side]:
    g = mpmath.mpf(params.get("gamma", 1.4))
    c = mpmath.sqrt(g * p / rho)
    a_k = 2 / ((g + 1) * rho)
    b_k = (g - 1) / (g + 1) * p

    def curve(x):
        if x > p:
            return (x - p) * mpmath.sqrt(a_k / (x + b_k))
        return 2 * c / (g - 1) * ((x / p) ** ((g - 1) / (2 * g)) - 1)

    def shock_offset(x):  # |S - u_K| of a shock to star pressure x
        return c * mpmath.sqrt((g + 1) / (2 * g) * x / p + (g - 1) / (2 * g))

    return p, (curve, c, shock_offset)


def _conservative(flux, celerity, rarefaction):
    """Side of a 2x2 system A_t + (Au)_x = 0, (Au)_t + (Au^2 + F(A))_x = 0."""

    def side(a_k):
        def curve(x):
            if x > a_k:
                return mpmath.sqrt((x - a_k) * (flux(x) - flux(a_k)) / (x * a_k))
            return rarefaction(x) - rarefaction(a_k)

        def shock_offset(x):
            return mpmath.sqrt(x * (flux(x) - flux(a_k)) / (a_k * (x - a_k)))

        return curve, celerity(a_k), shock_offset

    return side


def _swe(params: Dict[str, float], h, u) -> Tuple[object, Side]:
    g = mpmath.mpf(params.get("g", 9.8))
    side = _conservative(
        flux=lambda x: g * x * x / 2,
        celerity=lambda x: mpmath.sqrt(g * x),
        rarefaction=lambda x: 2 * mpmath.sqrt(g * x),  # integral of sqrt(g a) / a
    )
    return h, side(h)


def _bfe(params: Dict[str, float], a, u) -> Tuple[object, Side]:
    beta = mpmath.mpf(params.get("beta", 28209.4792))
    rho = mpmath.mpf(params.get("rho", 1.05))
    zeta = mpmath.sqrt(beta / (2 * rho))
    side = _conservative(
        flux=lambda x: beta / (3 * rho) * x * mpmath.sqrt(x),
        celerity=lambda x: zeta * mpmath.root(x, 4),
        rarefaction=lambda x: 4 * zeta * mpmath.root(x, 4),  # integral of zeta a^(1/4) / a
    )
    return a, side(a)


_SYSTEMS = {"euler": _euler, "swe": _swe, "bfe": _bfe}


def _problem(system, left, right, params):
    """f(X) of one problem, the data values X_L, X_R and the map from a star
    value to (u_star, s_left, s_right), all in mpmath numbers."""
    left = [mpmath.mpf(v) for v in left]
    right = [mpmath.mpf(v) for v in right]
    x_l, (curve_l, c_l, shock_l) = _SYSTEMS[system](params or {}, *left)
    x_r, (curve_r, c_r, shock_r) = _SYSTEMS[system](params or {}, *right)
    u_l, u_r = left[1], right[1]  # velocity is the second primitive of every system

    def f(x):
        return curve_l(x) + curve_r(x) + (u_r - u_l)

    def star(x):
        u_star = (u_l + u_r) / 2 + (curve_r(x) - curve_l(x)) / 2
        s_left = u_l - (shock_l(x) if x > x_l else c_l)
        s_right = u_r + (shock_r(x) if x > x_r else c_r)
        return u_star, s_left, s_right

    return f, x_l, x_r, star


def solve(system: str, left: Sequence[float], right: Sequence[float],
          params: Optional[Dict[str, float]] = None) -> Tuple[float, float, float, float]:
    """(star value, u_star, s_left, s_right) of one Riemann problem.

    The data must not produce vacuum, a dry bed or a collapsed vessel.
    """
    with mpmath.workdps(DIGITS):
        f, x_l, x_r, star = _problem(system, left, right, params)
        lo, hi = min(x_l, x_r), max(x_l, x_r)
        while f(lo) >= 0:
            if lo < mpmath.mpf("1e-200"):
                raise ValueError("no positive star value (vacuum data)")
            lo /= 1000
        while f(hi) < 0:
            hi *= 1000
        while hi / lo - 1 > REL_WIDTH:
            mid = mpmath.sqrt(lo * hi)
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        x = mpmath.sqrt(lo * hi)
        return (float(x), *map(float, star(x)))


def star_at(system: str, left: Sequence[float], right: Sequence[float],
            params: Optional[Dict[str, float]], x: float) -> Tuple[float, float, float]:
    """(u_star, s_left, s_right) that follow from the star value `x`, exact or not."""
    with mpmath.workdps(DIGITS):
        _, _, _, star = _problem(system, left, right, params)
        return tuple(map(float, star(mpmath.mpf(x))))


def euler_residual(left: Sequence[float], right: Sequence[float],
                   params: Optional[Dict[str, float]], p: float) -> float:
    """|f(p)| / max(|f(0)|, |f(p_rr)|) for Euler data.

    The denominator is the scale of the bracket [0, p_rr] that a solver
    started from the two-rarefaction pressure p_rr (Toro, eq. 4.46) works
    in; a residual stopping rule relative to that bracket stops once this
    ratio is below its tolerance.
    """
    with mpmath.workdps(DIGITS):
        f, p_l, p_r, _ = _problem("euler", left, right, params)
        g = mpmath.mpf((params or {}).get("gamma", 1.4))
        (rho_l, u_l, _), (rho_r, u_r, _) = ([mpmath.mpf(v) for v in s] for s in (left, right))
        c_l, c_r = mpmath.sqrt(g * p_l / rho_l), mpmath.sqrt(g * p_r / rho_r)
        z = (g - 1) / (2 * g)
        p_rr = ((c_l + c_r - (g - 1) / 2 * (u_r - u_l))
                / (c_l / p_l ** z + c_r / p_r ** z)) ** (1 / z)
        return float(abs(f(mpmath.mpf(p))) / max(abs(f(mpmath.mpf(0))), abs(f(p_rr))))
