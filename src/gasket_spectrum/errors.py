"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: DomainError and ResourceLimitError map to 1,
usage problems to 2, PrecisionError (and its subclasses) to 3. A failing check
report (verify, selftest) is printed, not raised, and also exits 1.
"""


class GasketError(Exception):
    """Base class for all library errors."""


class DomainError(GasketError):
    """An input lies outside the documented domain of an operation."""


class ResourceLimitError(GasketError):
    """A configured size cap (block exponent, depth, length) was exceeded."""


class PrecisionError(GasketError):
    """A comparison or enclosure could not be resolved at the configured precision."""


class AmbiguousClassificationError(PrecisionError):
    """A base enclosure straddles a classification boundary beyond refinement."""


class CapabilityError(PrecisionError):
    """A bounded search exhausted its cap without producing a certificate."""

