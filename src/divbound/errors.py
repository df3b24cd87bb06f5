"""Exception hierarchy shared across the package, and the check of integer arguments."""


class DivboundError(Exception):
    """Base class for every error raised by this package."""


class DomainError(DivboundError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def _count(name: str, value, low: int, high: float) -> int:
    """``value`` as an int; a DomainError naming ``name`` unless it is an integer in [low, high]."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value:  # 2.7, nan, inf, None, "7": refused, never truncated
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if count < low:
        raise DomainError(f"{name} must be at least {low}")
    if count > high:
        raise DomainError(f"{name} must be at most {high}, got {count}")
    return count


class UnknownGenerator(DivboundError, ValueError):
    """A generator name that is not one of the built-in divergences."""


class InvalidMeasure(DivboundError, ValueError):
    """A measure violates its construction invariants."""


class MeasureFormatError(InvalidMeasure):
    """A measure file or document cannot be parsed exactly."""


class AbsoluteContinuityViolation(DivboundError):
    """Some atom carries mu-mass but no nu-mass, so dmu/dnu does not exist."""

    def __init__(self, atom: str):
        self.atom = atom
        super().__init__(
            f"mu is not absolutely continuous with respect to nu: "
            f"atom {atom!r} has positive mu-weight but zero nu-weight"
        )


class NonMonotoneGenerator(DivboundError):
    """The bound function of a custom generator failed the monotonicity check."""
