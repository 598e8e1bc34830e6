"""Exception types raised across the toolkit."""


class PlanarWebError(Exception):
    """Base class for all toolkit errors."""


class ExprSyntaxError(PlanarWebError):
    """Bad expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ZeroDenominator(PlanarWebError):
    pass


class ConstantInput(PlanarWebError):
    pass


class PoleAtCenter(PlanarWebError):
    pass


class IdenticallySingular(PlanarWebError):
    pass


class DegenerateMap(PlanarWebError):
    pass


class TooFewFoliations(PlanarWebError):
    pass


class SearchExhausted(PlanarWebError):
    pass


class ZeroPivotCoefficient(PlanarWebError):
    pass


class NotPurelyUnivariate(PlanarWebError):
    """The eliminated equation still has genuinely bivariate coefficients.

    Carries the offending one-unknown equation for inspection."""

    def __init__(self, message, equation=None):
        super().__init__(message)
        self.equation = equation


class TrivialEquation(PlanarWebError):
    """Everything cancelled: only constant solutions (the generic case)."""


class NoRationalExpression(PlanarWebError):
    pass


class NotStabilized(PlanarWebError):
    def __init__(self, message, dims=None):
        super().__init__(message)
        self.dims = dims or []


class DegenerateQuadruple(PlanarWebError):
    pass


class InvalidParameter(PlanarWebError):
    pass


class AlphabetMismatch(PlanarWebError):
    pass


class OnCut(PlanarWebError):
    pass


class PrecisionNotReached(PlanarWebError):
    pass


class EvaluationFailure(PlanarWebError):
    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class NotConstant(PlanarWebError):
    pass


class UnknownName(PlanarWebError):
    pass
