"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the library throws with a single ``except`` clause while
still being able to distinguish subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class GraphError(ReproError):
    """Raised for invalid graph construction or graph queries."""


class DatasetError(ReproError):
    """Raised when a dataset name is unknown or a generator misconfigured."""


class AutogradError(ReproError):
    """Raised for invalid tensor operations in the autograd engine."""


class ShapeError(AutogradError):
    """Raised when tensor operands have incompatible shapes."""


class PrivacyError(ReproError):
    """Raised for invalid privacy parameters or accounting failures."""


class CalibrationError(PrivacyError):
    """Raised when noise calibration cannot meet the requested budget."""


class SamplingError(ReproError):
    """Raised for invalid subgraph-sampling configurations."""


class TrainingError(ReproError):
    """Raised when model training is misconfigured or diverges."""


class ExperimentError(ReproError):
    """Raised by the experiment harness for invalid specifications."""
