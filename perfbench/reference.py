"""Reference values for the benchmark's checks, computed apart from divbound.

Nothing here imports divbound.  Three things are provided:

- the exact supremum of {tv in [0, 2] : phi(tv/2) <= d} for each generator
  the benchmark inverts, in mpmath at 40 digits, capped at 2 from phi(1)
  on: closed forms for TV, PE, SH, HE, dual(HE) and dual(PE), and a
  Newton root of Vajda's phi for KL;
- divergences sum_i nu_i f(mu_i / nu_i) by ``math.fsum`` over the weights
  as written, with this module's own generator functions;
- the bound function phi in float64, for checking single pairs.
"""

from __future__ import annotations

import math

import mpmath

MP = mpmath.MPContext()
MP.dps = 40

# name -> (f on (0, inf), limit of f at 0+); natural logarithms throughout
_GENERATORS = {
    "HE": (lambda x: (math.sqrt(x) - 1.0) ** 2, 1.0),
    "TV": (lambda x: abs(x - 1.0), 1.0),
    "KL": (lambda x: x * math.log(x), 0.0),
    "PE": (lambda x: (x - 1.0) ** 2, 1.0),
    "SH": (lambda x: -math.log(x), math.inf),
}

_MP_GENERATORS = {
    "HE": lambda x: (MP.sqrt(x) - 1) ** 2,
    "TV": lambda x: abs(x - 1),
    "KL": lambda x: x * MP.log(x),
    "PE": lambda x: (x - 1) ** 2,
    "SH": lambda x: -MP.log(x),
    # conjugates x * f(1/x); HE is self-dual
    "dual(HE)": lambda x: x * (MP.sqrt(1 / x) - 1) ** 2,
    "dual(PE)": lambda x: (1 - x) ** 2 / x,
}

# phi(1) = f(2) + f(0): at and above it nothing better than tv <= 2 holds
PHI_AT_ONE = {
    "TV": MP.mpf(2),
    "PE": MP.mpf(2),
    "SH": MP.inf,
    "HE": 4 - 2 * MP.sqrt(2),
    "dual(HE)": 4 - 2 * MP.sqrt(2),
    "dual(PE)": MP.inf,
    "KL": 2 * MP.log(2),
}

SUPREMUM_NAMES = tuple(PHI_AT_ONE)


def f(name: str, x: float) -> float:
    """Generator ``name`` at x >= 0 in float64, with its limit at 0."""
    fn, at_zero = _GENERATORS[name]
    return at_zero if x == 0.0 else fn(x)


def phi(name: str, t: float) -> float:
    """The bound function f(1 + t) + f(1 - t) in float64."""
    return f(name, 1.0 + t) + f(name, 1.0 - t)


def phi_mp(name: str, t) -> mpmath.mpf:
    """phi at 40 digits for 0 <= t < 1 (any generator of SUPREMUM_NAMES)."""
    g = _MP_GENERATORS[name]
    t = MP.mpf(t)
    return g(1 + t) + g(1 - t)


def divergence(name: str, mu, nu) -> float:
    """sum_i nu_i f(mu_i / nu_i) over aligned weights, by math.fsum.

    Atoms with nu_i = mu_i = 0 carry nothing; mu_i > 0 = nu_i raises.
    """
    terms = []
    for m, n in zip(mu, nu):
        m = float(m)
        n = float(n)
        if n > 0.0:
            terms.append(n * f(name, m / n))
        elif m > 0.0:
            raise ValueError("mu is not absolutely continuous with respect to nu")
    if any(math.isinf(t) for t in terms):
        return math.inf
    return math.fsum(terms)


def l1(mu, nu) -> float:
    """sum_i |mu_i - nu_i| by math.fsum."""
    return math.fsum(abs(float(m) - float(n)) for m, n in zip(mu, nu))


def _kl_half_tv(d):
    # Newton from the right on the convex increasing phi(t) = d stays
    # above the root and converges monotonically; phi(t) >= t^2 starts it.
    phi_kl = lambda t: (1 + t) * MP.log(1 + t) + (1 - t) * MP.log(1 - t)
    t = min(MP.sqrt(d), 1 - MP.mpf(10) ** -30)
    for _ in range(200):
        step = (phi_kl(t) - d) / MP.log((1 + t) / (1 - t))
        t -= step
        if abs(step) < MP.mpf(10) ** -36:
            return t
    raise ArithmeticError(f"Newton iteration for the KL supremum at d={d} did not converge")


def tv_supremum(name: str, d: float) -> mpmath.mpf:
    """sup {tv in [0, 2] : phi(tv/2) <= d} at 40 digits; d may be +inf."""
    d = MP.mpf(d)
    if d < 0:
        raise ValueError(f"divergence values are nonnegative, got {d}")
    if d >= PHI_AT_ONE[name]:
        return MP.mpf(2)
    if d == 0:
        return MP.mpf(0)
    if name == "TV":
        return d
    if name == "PE":
        return MP.sqrt(2 * d)
    if name == "SH":
        return 2 * MP.sqrt(1 - MP.exp(-d))
    if name in ("HE", "dual(HE)"):
        s = 2 - d / 2
        return 2 * MP.sqrt(1 - (s * s / 2 - 1) ** 2)
    if name == "dual(PE)":
        return 2 * MP.sqrt(d / (2 + d))
    if name == "KL":
        return 2 * _kl_half_tv(d)
    raise KeyError(name)
