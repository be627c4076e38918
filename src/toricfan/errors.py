"""Exception types shared across the package."""


class ToricFanError(Exception):
    """Base class for all errors raised by this package."""


class ZeroVector(ToricFanError):
    """The zero vector has no primitive representative."""


class NotUnimodular(ToricFanError):
    """Generators are not part of a Z-basis of the lattice."""


class DependentGenerators(ToricFanError):
    """Cone generators are linearly dependent."""


class MalformedInput(ToricFanError):
    """Structurally broken input: bad indices, non-primitive or duplicate rays,
    inconsistent dimensions, or an unparseable file."""


class NotMaximal(ToricFanError):
    """The index set does not name a maximal cone of the fan."""


class DegenerateSubdivision(ToricFanError):
    """Star subdivision of a cone with fewer than two generators."""


class NotPure(ToricFanError):
    """Some cone of the fan is not contained in a full-dimensional cone."""


class InconsistentData(ToricFanError):
    """Weight data that does not assemble into a valid fan."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotComplete(ToricFanError):
    """Trajectory tracking requires a complete fan."""


class ZeroCoordinateStart(ToricFanError):
    """Trajectory starts must lie in the free orbit (no zero coordinates)."""


class NonFiniteState(ToricFanError):
    """A numerical state overflowed or left the representable range."""


class TrackingError(ToricFanError):
    """Chart switching failed to make progress (internal safety stop)."""


class UnknownBuiltin(ToricFanError):
    """No builtin fan with that name."""


class BadParam(ToricFanError):
    """A builtin fan parameter or a flow parameter out of range."""
