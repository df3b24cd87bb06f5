"""f-divergences between finite discrete measures, with certified TV bounds.

    >>> from divbound import ProbabilityMeasure, kl, invert, builtin
    >>> mu = ProbabilityMeasure(("a", "b"), [0.5, 0.5])
    >>> nu = ProbabilityMeasure(("a", "b"), [0.25, 0.75])
    >>> round(kl(mu, nu).value, 6)
    0.143841
    >>> invert(builtin("KL"), 0.02).tv_upper_bound  # doctest: +SKIP
    0.2828...

The namespace resolves on first use (PEP 562): ``import divbound`` loads
no submodule, and a public name imports the submodule that defines it
the first time it is looked up, then stays bound here.  numpy loads with
the modules that compute on arrays (``measure``, ``divergence``,
``jointrange``) or when a generator is first evaluated, so ``invert`` on
a built-in generator, which reads a table of closed forms, never imports
it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "bounds": ("TvCertificate", "bretagnolle_huber", "bretagnolle_huber_certificate",
               "check_monotone", "hellinger_bound", "hellinger_certificate", "invert",
               "lower_bound", "phi"),
    "divergence": ("DivergenceValue", "d_f", "density_ratio", "hellinger", "kl", "pearson",
                   "sh", "tv"),
    "errors": ("AbsoluteContinuityViolation", "DivboundError", "DomainError", "InvalidMeasure",
               "MeasureFormatError", "NonMonotoneGenerator", "UnknownGenerator"),
    "extreal": ("INF", "format_extended", "is_finite", "parse_extended"),
    "generator": ("BUILTIN_NAMES", "Generator", "builtin", "check_separation", "default_grid",
                  "dual", "is_builtin"),
    "jointrange": ("ScanRecord", "VerificationReport", "random_pair", "scan_binary",
                   "scan_to_csv", "tightness_gap", "verify_bound"),
    "measure": ("HahnDecomposition", "ProbabilityMeasure", "SignedMeasure", "align",
                "hahn_jordan", "read_probability_measure", "read_signed_measure",
                "subset_extrema", "subset_totals", "total_variation_norm", "tv_distance",
                "tv_via_density"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
