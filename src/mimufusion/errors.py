"""Domain error hierarchy.

Every failure the library can diagnose maps to one subclass so callers
(and the CLI) can translate them into machine-readable payloads.
"""
from __future__ import annotations

import contextlib


class MimuError(Exception):
    """Base class for all domain errors raised by this package."""

    def payload(self) -> dict:
        return {"error": type(self).__name__, "message": str(self)}


class DegenerateMotion(MimuError):
    """Motion does not excite the quantity being estimated."""


class SingularFusion(MimuError):
    """Exact (sigma 0) and noisy sensors mixed in one category (the gyros or
    the accelerometers) give no fusion weights, or a virtual density overflows."""


class SingularNormalEquations(MimuError):
    """Normal equations are numerically singular."""


class FormatError(MimuError):
    """File contents violate the documented format."""


class RateMismatch(MimuError):
    """Sample rates (or sample grids) of jointly processed series disagree."""


class EmptyOverlap(MimuError):
    """Series share no common time window."""


class LengthMismatch(MimuError):
    """Paired sequences have different lengths."""


@contextlib.contextmanager
def _naming(prefix: str, kinds=(FormatError,)):
    """Re-raise an exception of ``kinds`` raised in the block as a
    FormatError whose message is ``prefix`` followed by the original's,
    so that a message names the file, key or block it came from."""
    try:
        yield
    except kinds as exc:
        raise FormatError(f"{prefix}{exc}") from exc
