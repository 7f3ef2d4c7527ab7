"""Entropy-gated decoding control for token streams.

Monitors per-step predictive entropy, detects spikes with an adaptive
dual threshold behind a gradient pre-filter, and rectifies the logit
distribution with entropy-aware guidance against a reference synthesized
from low-entropy history (or supplied externally). Ships a synthetic
logit-stream harness, a trace/replay layer, and a stdio wire protocol so
any host runtime can drive it.
"""

from .controller import (
    Controller,
    ControllerConfig,
    Directive,
    EventRecord,
    Mode,
    StreamSummary,
)
from .detector import Decision, DecisionKind, DetectorConfig, Phase, SpikeDetector
from .distributions import (
    apply_temperature,
    log_softmax,
    normalized_entropy,
    shannon_entropy,
    softmax,
)
from .errors import ConfigError, NotReadyError, ProtocolError, SpregError, TraceFormatError
from .harness import GroundTruth, Metrics, Scenario, evaluate, generate
from .monitor import EntropyWindow, entropy_gradient
from .plan_tracker import GuidanceTable, PatternSet, PlanTracker, StepType
from .repair import (
    ReferencePool,
    RepairParams,
    adaptive_scale,
    aggressive_recover,
    guided_logits,
    repetition_penalty,
    token_weights,
)
from .trace_io import TraceRecord, export_csv, read_trace, replay_records, serve_stdio, write_trace

__version__ = "0.1.0"
