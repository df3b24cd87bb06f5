"""Convex generator functions defining f-divergences.

A generator is a convex function f on [0, inf) with f(1) = 0.  Each one
carries exact metadata, never probed: its limit at 0+ (evaluating
x*log(x) or -log(x) at 0 in floating point would produce NaN or raise),
its slope at infinity lim f(y)/y and, when one exists, a separation
coefficient a: a real number such that g(x) = f(x) - a*(x - 1) is
nonnegative and vanishes only at x = 1.  A generator with such a
coefficient yields a divergence that separates measures: divergence
zero forces the measures to be equal.

Convexity and separation are validated numerically on sample grids; this
module checks, it does not prove.  numpy is imported by the functions
that evaluate, not by the module, so looking up a built-in loads none.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from .errors import DomainError, UnknownGenerator, _count

if TYPE_CHECKING:
    import numpy as np

    from .bounds import _Row

BUILTIN_NAMES = ("HE", "TV", "KL", "PE", "SH")


@dataclass(frozen=True)
class Generator:
    """A convex function on [0, inf) vanishing at 1, with metadata.

    ``fn`` only ever sees strictly positive arguments; calls at 0 return
    ``value_at_zero``.  Built-in ``fn`` implementations accept numpy
    arrays as well as scalars.  ``slope_at_inf`` is lim f(y)/y; ``base``
    is set on conjugates only (see ``dual``).
    """

    name: str
    fn: Callable[[float], float]
    value_at_zero: float
    separation_coefficient: float | None = None
    slope_at_inf: float | None = None
    base: Generator | None = None

    def __post_init__(self) -> None:
        # the built-in formulas vanish at 1 exactly; probing one would import numpy
        if all(self.fn is not f for f in _VANISHING_AT_ONE) and float(self.fn(1.0)) != 0.0:
            raise DomainError(f"generator {self.name!r} must vanish at 1")

    def __call__(self, x: float) -> float:
        x = float(x)
        if math.isnan(x) or x < 0.0:
            raise DomainError(f"generator {self.name!r} is defined on [0, inf), got {x!r}")
        if x == 0.0:
            return float(self.value_at_zero)
        return float(self.fn(x))

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        """Evaluate elementwise; zeros map to ``value_at_zero``."""
        import numpy as np

        x = np.asarray(x, dtype=np.float64)
        if not np.all(x >= 0.0):  # also catches NaN
            raise DomainError(f"generator {self.name!r} is defined on [0, inf)")
        out = np.full(x.shape, self.value_at_zero, dtype=np.float64)
        pos = x > 0.0
        if pos.any():
            xp = x[pos]
            try:
                with np.errstate(all="ignore"):
                    values = np.asarray(self.fn(xp), dtype=np.float64)
                if values.shape != xp.shape:
                    raise TypeError
            except (TypeError, ValueError):
                # scalar-only user function
                values = np.array([float(self.fn(float(v))) for v in xp])
            out[pos] = values
        return out

    @functools.cached_property
    def _phi_monotone(self) -> bool:
        """``bounds.check_monotone`` on the invert grid, run once per generator object."""
        from . import bounds

        return bounds.check_monotone(self, bounds._MONOTONE_GRID)

    @functools.cached_property
    def _bound_row(self) -> _Row | None:
        """``bounds._table_row``: this generator's row of the ``invert`` table, or None."""
        from . import bounds

        return bounds._table_row(self)


def _hellinger(x):
    import numpy as np
    y = np.sqrt(x) - 1.0
    return y * y


def _total_variation(x):
    import numpy as np
    return np.abs(x - 1.0)


def _kullback_leibler(x):
    import numpy as np
    return x * np.log(x)


def _pearson(x):
    y = x - 1.0
    return y * y


def _shannon(x):
    import numpy as np
    return 0.0 - np.log(x)  # +0.0 at x = 1, where -np.log(x) gives -0.0


_VANISHING_AT_ONE = (_hellinger, _total_variation, _kullback_leibler, _pearson, _shannon)
_BUILTINS: dict[str, Generator] = {
    "HE": Generator("HE", _hellinger, 1.0, 0.0, 1.0),
    "TV": Generator("TV", _total_variation, 1.0, None, 1.0),
    "KL": Generator("KL", _kullback_leibler, 0.0, 1.0, math.inf),
    "PE": Generator("PE", _pearson, 1.0, 0.0, math.inf),
    "SH": Generator("SH", _shannon, math.inf, -1.0, 0.0),
}


def builtin(name: str) -> Generator:
    """Look up a built-in generator by (case-insensitive) name.

    HE  (sqrt(x) - 1)^2   Hellinger                 f(0) = 1,   f'(inf) = 1,   a = 0
    TV  |x - 1|           total variation           f(0) = 1,   f'(inf) = 1,   no coefficient
    KL  x log x           Kullback-Leibler (nats)   f(0) = 0,   f'(inf) = inf, a = 1
    PE  (x - 1)^2         Pearson chi-square        f(0) = 1,   f'(inf) = inf, a = 0
    SH  -log x            reverse KL / Shannon      f(0) = inf, f'(inf) = 0,   a = -1

    f'(inf) is the slope at infinity, lim f(y)/y.  SH is the dual of KL:
    the two swap their limits.  TV stores no separation coefficient: it
    separates measures through the metric property of the distance, not
    through a coefficient, and no claim is attached to one.
    """
    try:
        return _BUILTINS[str(name).upper()]
    except KeyError:
        choices = ", ".join(BUILTIN_NAMES)
        raise UnknownGenerator(f"unknown generator {name!r}; choose one of {choices}") from None


def is_builtin(f: Generator) -> bool:
    return _BUILTINS.get(f.name.upper()) is f


def dual(f: Generator) -> Generator:
    """The conjugate generator x -> x*f(1/x), which swaps divergence arguments.

    Its limit at 0+ is f's slope at infinity and its slope is f(0): the
    stored limits trade places and nothing is probed.  A separation
    coefficient a becomes -a, because x*f(1/x) + a*(x - 1) = x*g(1/x)
    inherits positivity from g.  The conjugate is named ``f.name + "*"``
    and keeps ``f`` as its ``base``, so ``dual(dual(f)) is f``.  Raises
    ``DomainError`` when ``f`` stores no slope at infinity.
    """
    if f.base is not None:
        return f.base
    if f.slope_at_inf is None:
        raise DomainError(f"generator {f.name!r} stores no slope at infinity, so it has no dual")

    def conjugate(x):
        import numpy as np

        if isinstance(x, np.ndarray):
            return x * f.eval_array(1.0 / x)
        return x * f(1.0 / x)

    a = f.separation_coefficient
    return Generator(f"{f.name}*", conjugate, f.slope_at_inf, None if a is None else -a,
                     f.value_at_zero, f)


def default_grid(stop: float = 10.0, step: float = 0.01) -> np.ndarray:
    """The sample grid {0, step, 2*step, ..., stop} used by the checks."""
    import numpy as np

    if not (0.0 <= stop < math.inf and 0.0 < step < math.inf):
        raise DomainError(f"grid needs a finite stop >= 0 and step > 0, got {stop!r} and {step!r}")
    if math.isinf(steps := stop / step):
        raise DomainError(f"stop / step must be finite, got {stop!r} / {step!r}")
    # numpy holds at most sys.maxsize bytes: steps + 1 float64 values
    return np.linspace(0.0, stop, _count("stop / step", round(steps), 0, sys.maxsize // 8 - 1) + 1)


def check_separation(f: Generator, a: float, grid: Iterable[float]) -> bool:
    """Grid-check that g(x) = f(x) - a*(x - 1) is nonnegative and vanishes only near 1.

    True iff g >= -1e-12 everywhere on the grid and g > 1e-12 at every
    grid point with |x - 1| >= 1e-3 (a NaN g fails only there).  One
    ``eval_array`` pass: a grid point outside [0, inf) raises ``DomainError``.
    """
    import numpy as np

    x = np.fromiter(grid, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        g = f.eval_array(x) - float(a) * (x - 1.0)
    return not np.any((g < -1e-12) | ((np.abs(x - 1.0) >= 1e-3) & ~(g > 1e-12)))
