"""Exception types raised across the package."""


class QgsymError(Exception):
    """Base class for all qgsym errors."""


class NonPositiveLength(QgsymError):
    pass


class DanglingEndpoint(QgsymError):
    pass


class NotSimple(QgsymError):
    """A simple-graph constructor was given a loop or parallel edge."""


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


class NotTransitive(QgsymError):
    pass


class CoverageGap(QgsymError):
    pass


class NonUnitPhase(QgsymError):
    pass


class NonUnitaryScattering(QgsymError):
    """A locator that counts eigenphases was given a non-unitary S."""


class MissingCondition(QgsymError):
    pass


class UnsupportedCondition(QgsymError):
    pass


class UnsupportedFormat(QgsymError):
    """A graph document declares a format version this reader does not know."""


class GridTooCoarse(QgsymError):
    pass


class OrientationMismatch(QgsymError):
    pass
