"""Exception types raised across the package."""


class FrameError(ValueError):
    """Input fails the frame or projection contracts."""


class BarrierError(ValueError):
    """A resolvent was requested at or below the top eigenvalue."""


class ToleranceBreachError(RuntimeError):
    """A certified inequality failed numerically; margins in the message."""


class SelectionError(RuntimeError):
    """No remaining candidate is feasible; carries the full U profile."""

    def __init__(self, message, u_profile=None, remaining=None):
        super().__init__(message)
        self.u_profile = u_profile
        self.remaining = remaining


class CertificateMismatchError(ValueError):
    """Certificate and frame disagree on dimensions or indices."""
