"""Exception hierarchy shared across the package."""


class PosetGeoError(Exception):
    """Base class for all errors raised by posetgeo."""


class DuplicateEvent(PosetGeoError):
    pass


class UnknownEvent(PosetGeoError):
    pass


class UnknownChain(PosetGeoError):
    pass


class CycleViolation(PosetGeoError):
    """The generating relations contain a cycle, so their closure would
    not be antisymmetric."""


class Unquantifiable(PosetGeoError):
    """The projections that exist do not quantify what was asked."""


class MissingProjection(Unquantifiable):
    """A projection the operation needs does not exist."""


class NotBetween(PosetGeoError):
    pass


class InconsistentSides(PosetGeoError):
    pass


class NotCoordinated(PosetGeoError):
    pass


class NotCollinear(PosetGeoError):
    pass


class NonUniformSpacing(PosetGeoError):
    pass


class SpacingMismatch(PosetGeoError):
    pass


class NotParallel(PosetGeoError):
    pass


class TimeMismatch(PosetGeoError):
    """Dot-product operands differ in their symmetric (time) components."""


class NotAntichainLike(PosetGeoError):
    pass


class AlignmentError(PosetGeoError):
    """An exact result would require a projection that is not tick-aligned."""


class MixedConfiguration(PosetGeoError):
    pass


class InvalidMetric(PosetGeoError):
    """Squared-distance table violates the triangle inequality."""


class EmptyWorldline(PosetGeoError):
    pass


class UnknownSuite(PosetGeoError):
    pass


class UnknownFormat(PosetGeoError):
    pass
