"""Exception hierarchy for the Uni-Render reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type at the API boundary.
"""

from __future__ import annotations

import math


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError):
    """An invalid hardware or pipeline configuration was supplied."""


class SceneError(ReproError):
    """A scene, camera, or representation was malformed or unknown."""


class CompileError(ReproError):
    """A rendering pipeline could not be lowered to a micro-op trace."""


class UnsupportedPipelineError(ReproError):
    """A device model was asked to run a pipeline it does not support.

    Mirrors the "x" bars in Fig. 7 / Fig. 16 of the paper: dedicated
    accelerators only execute their target pipeline.
    """

    def __init__(self, device: str, pipeline: str) -> None:
        super().__init__(f"device {device!r} does not support pipeline {pipeline!r}")
        self.device = device
        self.pipeline = pipeline


class SimulationError(ReproError):
    """The performance simulator reached an inconsistent state."""


class ObsError(ReproError):
    """An observability artifact (trace, metrics dump, flight-recorder
    capture) was malformed or failed validation."""


def finite_float(text: str) -> float:
    """``float(text)`` that also raises ``ValueError`` for NaN and the
    infinities (``"1e400"`` included).

    Spec parsers call it inside their ``except ValueError`` so the
    :class:`ConfigError` they raise names the field and chains the cause.
    """
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not finite")
    return value
