"""Exception types shared across the package."""


class ShortPulseError(Exception):
    """Base class for all package-specific errors."""


class MeanNotZero(ShortPulseError):
    """A field that the antiderivative is applied to has a nonzero mean."""


class MonitorViolation(ShortPulseError):
    """A run-time monitor stopped the computation: the run is unreliable
    beyond this point, not misconfigured."""


class StepRejected(MonitorViolation):
    """A time step failed its finiteness or local-error check.

    ``err`` is the step's error estimate (inf for a non-finite state).  The
    stepper redoes such a step smaller; this reaches the caller only when
    the step size collapses, or at once when stepping at a fixed dt.
    """

    def __init__(self, message, err):
        super().__init__(message)
        self.err = err


class BandExceeded(ShortPulseError):
    """A step's spectral tail rose above tolerance at the top of the
    stepper's active band; the band must widen."""


class BlowUp(MonitorViolation):
    """The solution norm doubled (or became non-finite) during evolution."""


class WrapAround(MonitorViolation):
    """Significant mass reached the edge of the periodic box."""


class MeanDrift(MonitorViolation):
    """The zero mode drifted above tolerance during evolution."""


class InsufficientData(ShortPulseError):
    """Not enough samples in the requested window to fit anything."""


class UnderResolved(ShortPulseError):
    """The grid cannot resolve the requested oscillation."""


class OutOfBox(ShortPulseError):
    """A wave packet's support leaves the valid region of the box."""


class QuadratureUnderResolved(MonitorViolation):
    """Doubling the quadrature resolution moved a reported value too much."""


class CorruptSnapshot(ShortPulseError):
    """A stored snapshot file or its norms.csv failed its checks."""


class MissingSnapshots(ShortPulseError):
    """A required snapshot time is absent from the stored trajectory."""


class ConfigError(ShortPulseError):
    """Malformed, unknown, or out-of-range configuration input.

    ``key`` names the offending setting, when there is one, and leads the
    message; ``reason`` is the message without it.
    """

    def __init__(self, message, key=None):
        super().__init__(f"{key}: {message}" if key else message)
        self.key = key
        self.reason = message


def check_ranges(obj, rules):
    """Raise :class:`ConfigError`, keyed by the field name, for the first
    ``(field, admissible, range)`` rule whose predicate rejects that field
    of ``obj``; ``range`` completes "must ...".  Every config type checks
    its own fields this way, whichever path constructs it."""
    for name, admissible, text in rules:
        value = getattr(obj, name)
        if not admissible(value):
            raise ConfigError(f"must {text}, got {value!r}", key=name)
