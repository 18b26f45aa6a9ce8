"""Exact semimartingale detection on finite dyadic scenario trees.

The package decides, for a process on a refining binary filtration,
between a verified martingale-plus-finite-variation decomposition and a
sequence of trading strategies evidencing a free lunch with vanishing
risk and little investment; at finite resolution the two branches are
an exhaustive, auditable dichotomy up to an explicit inconclusive
verdict.
"""

from .errors import (
    ConvergenceError,
    InvariantViolation,
    ParameterError,
    PreconditionError,
    ResourceLimitError,
    SemimartError,
    StructuralError,
)
from .generators import EnsembleProcess, GeneratorSpec, Source, generate
from .integrands import integral_process, integrate, vr_metric
from .io import read_ensemble, read_report, report_body, write_ensemble, write_report
from .pipeline import DetectConfig, FreeLunchEvidence, Inconclusive, SemimartingaleCertificate, detect

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DetectConfig",
    "EnsembleProcess",
    "FreeLunchEvidence",
    "GeneratorSpec",
    "Inconclusive",
    "InvariantViolation",
    "ParameterError",
    "PreconditionError",
    "ResourceLimitError",
    "SemimartError",
    "SemimartingaleCertificate",
    "Source",
    "StructuralError",
    "detect",
    "generate",
    "integral_process",
    "integrate",
    "read_ensemble",
    "read_report",
    "report_body",
    "vr_metric",
    "write_ensemble",
    "write_report",
]
