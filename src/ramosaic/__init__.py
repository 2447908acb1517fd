"""Thread-modular abstract interpretation for release-acquire litmus programs."""

from .engine import AnalysisResult, tmai
from .litmus import Program, build_cfg, parse, unroll
from .transfer import TransferConfig, Verdict

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "Program",
    "TransferConfig",
    "Verdict",
    "build_cfg",
    "parse",
    "tmai",
    "unroll",
]
