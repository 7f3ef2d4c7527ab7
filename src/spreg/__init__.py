"""Entropy-gated decoding control for token streams.

Monitors per-step predictive entropy, detects spikes with an adaptive
dual threshold behind a gradient pre-filter, and rectifies the logit
distribution with entropy-aware guidance against a reference synthesized
from low-entropy history (or supplied externally). Ships a synthetic
logit-stream harness, a trace/replay layer, and a stdio wire protocol so
any host runtime can drive it.

The names exported here are the host contract; the math helpers stay
importable from their modules (``spreg.distributions``, ``spreg.repair``, ...).
"""

from .controller import (
    Controller,
    ControllerConfig,
    Directive,
    EventRecord,
    Mode,
    StreamSummary,
)
from .detector import DetectorConfig, Phase
from .errors import ConfigError, ProtocolError, SpregError, TraceFormatError
from .harness import GroundTruth, Metrics, Scenario, evaluate, generate
from .plan_tracker import GuidanceTable, PatternSet, StepType
from .repair import RepairParams
from .trace_io import TraceRecord, export_csv, serve_stdio

__version__ = "0.1.0"
