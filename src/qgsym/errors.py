"""Exception types raised across the package, and the shared range check."""

import math


class QgsymError(Exception):
    """Base class for all qgsym errors."""


class NonPositiveLength(QgsymError):
    pass


class DanglingEndpoint(QgsymError):
    pass


class ZeroDegree(QgsymError):
    pass


class LabelOutOfRange(QgsymError):
    pass


class NotCoprime(QgsymError):
    pass


class JumpOutOfRange(QgsymError):
    pass


class DuplicateJump(QgsymError):
    pass


class IsomorphismCheckFailed(QgsymError):
    pass


class InvalidAction(QgsymError):
    """A builder produced or was given a structure-violating group action."""


class ActionNotFree(QgsymError):
    """A non-identity group element fixes a bond, so the bonds do not split into free orbits."""


class NonUnitPhase(QgsymError):
    pass


class NonUnitaryScattering(QgsymError):
    """A locator that counts eigenphases was given a non-unitary S."""


class MissingCondition(QgsymError):
    pass


class UnsupportedCondition(QgsymError):
    pass


class UnsupportedFormat(QgsymError):
    """A graph document or a spectrum CSV row is malformed, or a document has an unknown version."""


class NonPositiveParameter(QgsymError):
    """A size, step or bound that must be finite and positive is not."""


class MalformedList(QgsymError):
    """A comma-separated command-line list has an entry of the wrong type."""


class GridTooCoarse(QgsymError):
    pass


class GridTooLarge(QgsymError):
    """A k grid would hold more points than any run should evaluate."""


class OrientationMismatch(QgsymError):
    pass


def require_positive(**params) -> None:
    """Raise NonPositiveParameter naming the first of `params` that is not finite and > 0."""
    for name, value in params.items():
        if not 0 < value < math.inf:  # false for nan; exact for ints of any size
            raise NonPositiveParameter(f"{name} = {value!r} must be finite and positive")
