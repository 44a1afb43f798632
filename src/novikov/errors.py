"""Exception types shared across the package."""


class NovikovError(Exception):
    """Base class for all library errors."""


class FieldMismatch(NovikovError):
    """Operands live over different fields."""


class DimMismatch(NovikovError):
    """Dimensions of the operands do not line up."""


class BadContraction(NovikovError):
    """Unknown tensor contraction kind."""


class NoHalf(NovikovError):
    """The operation needs 1/2 but the field has characteristic 2."""


class NotNovikov(NovikovError):
    """A product table expected to be Novikov is not."""


class NotABimodule(NovikovError):
    """Actions expected to form a bimodule do not."""


class NotTrialgebra(NovikovError):
    """The two products do not form a commutative dendriform trialgebra."""


class NotDerivation(NovikovError):
    """The given map is not a derivation of the required products."""


class NotOOperator(NovikovError):
    """The map fails the weighted operator identity."""


class NotRotaBaxter(NovikovError):
    """The endomorphism fails the Rota-Baxter identity."""


class SingularT(NovikovError):
    """An invertible operator was required but the matrix is singular."""


class KernelNotIdeal(NovikovError):
    """The kernel of the map is not an ideal of the module product."""


class NotNYBESolution(NovikovError):
    """The tensor does not solve the Yang-Baxter equation."""


class SymPartNotInvariant(NovikovError):
    """The symmetric part of the tensor is not invariant."""


class DegenerateForm(NovikovError):
    """The bilinear form must be nondegenerate here."""


class BetaNotSelfAdjoint(NovikovError):
    """The extension map must be self-adjoint for this transport."""


class SpaceTooLarge(NovikovError):
    """The search's candidate space exceeds the configured bound."""


class DocumentError(NovikovError):
    """A JSON document failed to parse or validate."""
