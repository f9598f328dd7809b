"""Exception hierarchy shared by all specvar modules.

Two families matter for callers: ``InputError`` signals a malformed or
contract-violating input (bad shape, non-finite entries, unsorted data),
while ``AssumptionError`` signals that a mathematical precondition of a
formula does not hold at the given point (not a subgradient, no
simultaneous gauge, rank assumptions, ...).  The CLI maps the families to
distinct exit codes.
"""


class SpecvarError(Exception):
    """Base class for all specvar errors."""


class InputError(SpecvarError):
    """Malformed input: shapes, finiteness, ordering."""


class AssumptionError(SpecvarError):
    """A mathematical precondition fails at the given data."""


# -- input contract violations ------------------------------------------------

class NonFinite(InputError):
    """An input matrix or vector contains NaN or infinite entries."""


class ShapeError(InputError):
    """Dimensions disagree or violate the n <= m convention."""


class NotSorted(InputError):
    """A vector required to be nonincreasing is not."""


class InconsistentPartition(InputError):
    """A partition does not describe the decomposition it is paired with."""


class AsymmetricInput(InputError):
    """A matrix required to be symmetric deviates beyond tolerance."""


class BadK(InputError):
    """Ky Fan order k outside 1..n."""


# -- mathematical precondition failures ---------------------------------------

class NotBlockSorted(AssumptionError):
    """Target vector violates the blockwise nonincreasing precondition."""


class NotASubgradient(AssumptionError):
    """The supplied vector/matrix is not in the required subdifferential."""


class AssumptionViolated(AssumptionError):
    """Required flags (convexity, lsc, Lipschitz, ...) are not all set."""


class NoSimultaneousGauge(AssumptionError):
    """No orthogonal pair diagonalizes both matrices with ordered values."""


class FullRank(AssumptionError):
    """Operation requires rank(X) < n."""


class RankZero(AssumptionError):
    """Operation requires rank(X) >= 1."""


class NotInRegularSubdiff(AssumptionError):
    """Matrix is not in the regular subdifferential required here."""


class NotInSet(AssumptionError):
    """Point is not a member of the given invariant set."""


class ProjectionUnavailable(AssumptionError):
    """The invariant set spec does not provide a projection hook."""


class NonFiniteBase(AssumptionError):
    """Oracle base value g(x) is not finite."""


class SamplingExhausted(AssumptionError):
    """Rejection sampling produced fewer cone members than required."""


class ConditioningWarning(UserWarning):
    """Spectral gap below threshold: formulas exact but float error grows."""
