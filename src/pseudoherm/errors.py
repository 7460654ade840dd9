"""Exception hierarchy.

Errors are split into three families: usage/parse problems, numerical
ambiguities, and mathematical refusals (requests that a theorem forbids for
the given input).  The CLI exit code is the class attribute ``exit_code``,
inherited by subclasses: 2 on the base class (numerical ambiguities and the
bare ``NonConvergence``, ``Singular`` and ``Overflow``), 1 on
``DimensionMismatch`` and 3 on ``MathematicalRefusal``.
"""


class PseudohermError(Exception):
    """Base class for all library errors."""

    exit_code = 2


class DimensionMismatch(PseudohermError):
    exit_code = 1


class NonConvergence(PseudohermError):
    pass


class Singular(PseudohermError):
    pass


class Overflow(PseudohermError):
    pass


class NumericalAmbiguity(PseudohermError):
    """Input cannot be resolved at the requested tolerance."""


class ClusterAmbiguity(NumericalAmbiguity):
    pass


class MathematicalRefusal(PseudohermError):
    """The requested object provably does not exist for this input.

    ``reason`` names the governing result (e.g. "Theorem 1").
    """

    exit_code = 3

    def __init__(self, message, reason=None):
        super().__init__(message)
        self.reason = reason


class NotPaired(MathematicalRefusal):
    pass


class NotDiagonalizableReal(MathematicalRefusal):
    pass


class UnpairedRealBlocks(MathematicalRefusal):
    pass


class SingularMetric(MathematicalRefusal):
    pass


class NonHermitianMetric(MathematicalRefusal):
    pass


class SingularBasis(MathematicalRefusal):
    pass


class SingularOperator(MathematicalRefusal):
    pass


class NotInvolutory(MathematicalRefusal):
    pass


class NotAntiunitary(MathematicalRefusal):
    pass


class NotPseudoHermitian(MathematicalRefusal):
    pass


class IndefiniteMetric(MathematicalRefusal):
    pass


class ZeroLeadingCoefficient(MathematicalRefusal):
    pass
