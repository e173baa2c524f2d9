"""Exception hierarchy shared by all modules.

User-facing validation failures derive from UsageError (CLI exit code 1);
violations of structural guarantees derive from InvariantBreach (exit code 2).
"""


class HeckedynError(Exception):
    pass


class UsageError(HeckedynError):
    """Bad input supplied by the caller."""


class InvariantBreach(HeckedynError):
    """A structural guarantee failed; indicates a bug, not user error."""


# field / polynomial layer

class NonPrime(UsageError):
    pass


class DegreeZero(UsageError):
    pass


class ZeroPolynomial(UsageError):
    pass


# curve layer

class UnsupportedCharacteristic(UsageError):
    pass


class NotSupersingular(UsageError):
    pass


class BadTorsionOrder(UsageError):
    pass


class EqualCharacteristic(UsageError):
    pass


class NotAKernel(UsageError):
    pass


# quadratic forms

class PositiveDiscriminant(UsageError):
    pass


class BadDiscriminant(UsageError):
    pass


class InertPrime(UsageError):
    pass


# volcano

class SupersingularStart(UsageError):
    pass


class ExcludedJ(UsageError):
    pass


class NotClosed(UsageError):
    pass


class NotSplit(UsageError):
    pass


# supersingular graphs

class ScaleExceeded(UsageError):
    pass


class EvenEll(UsageError):
    pass


class SharedCharacteristic(UsageError):
    pass


class TraceAmbiguous(UsageError):
    pass


class BudgetExhausted(HeckedynError):
    """Bounded search ran out of budget; reported, not fatal."""


# p-adic layer

class NotAUnit(UsageError):
    pass


class ConvergenceDomain(UsageError):
    pass


class PrecisionExhausted(UsageError):
    pass


# disc dynamics

class ChartEscape(InvariantBreach):
    pass


# markov

class NotOutRegular(UsageError):
    pass


class Reducible(UsageError):
    pass


class Bipartite(UsageError):
    pass


class DepthTooSmall(UsageError):
    pass
