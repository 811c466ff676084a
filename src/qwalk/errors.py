"""Exception hierarchy shared by the simulation, theory, and analysis layers."""


class QwalkError(Exception):
    """Base class for every error raised by this package."""


class DegenerateAmplitude(QwalkError):
    """Routing amplitudes of an adaptive unit vanished (p0 + p1 < 1e-30) or are NaN.

    Raised by ``bs_route``/``pbs_route``, it holds the two in ``p0`` and ``p1``.
    """


class InvalidLevels(QwalkError):
    """Requested mesh depth is outside the supported range."""


class UnwiredPort(QwalkError):
    """An output port a particle can reach has no wire attached (construction bug)."""


class UnsupportedStep(QwalkError):
    """Closed-form probabilities are only tabulated for steps 1..5."""


class EmptyRun(QwalkError):
    """A distribution required by an estimator contains no counts."""


class InsufficientReplicates(QwalkError):
    """At least two replicate values are needed for a standard error."""
