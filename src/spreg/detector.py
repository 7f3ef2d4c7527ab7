"""Spike decision rules and the temporal control state machine.

Detection is a two-stage test: a gradient pre-filter separates rapid
uncertainty surges (or outright extreme entropy) from slow semantic
transitions, and a dual threshold then requires the entropy to clear both
the local adaptive bound mu + alpha*sigma and an absolute floor.

The state machine enforces the warmup / monitoring / repairing / cooldown
rhythm: no evaluation during warmup, and one countdown per intervention:
a trigger of severity d (1-3) holds the stream for d - 1 repair steps and
then t_cool cooldown steps. The detector also counts consecutive steps
whose entropy exceeds the window mean; c_high of them escalate to
aggressive recovery, which takes precedence over spike repair, restarts
the count and is followed by the same cooldown.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .distributions import EPSILON
from .errors import ConfigError, check_fields

__all__ = [
    "DetectorConfig",
    "Phase",
    "DecisionKind",
    "Decision",
    "prefilter",
    "is_spike",
    "severity_duration",
    "SpikeDetector",
]


@dataclass(frozen=True)
class DetectorConfig:
    window: int = 10
    alpha: float = 1.5
    h_min: float = 2.0
    g_min: float = 0.3
    h_extreme: float = 3.5
    t_warm: int = 5
    t_cool: int = 30
    n_grad: int = 5
    c_high: int = 50

    def __post_init__(self):
        check_fields(self)
        checks = [
            (self.window >= 1, "window must be >= 1"),
            (self.alpha > 0, "alpha must be > 0"),
            (self.h_min >= 0, "h_min must be >= 0"),
            (self.g_min >= 0, "g_min must be >= 0"),
            (self.h_extreme > self.h_min, "h_extreme must exceed h_min"),
            (self.t_warm >= 0, "t_warm must be >= 0"),
            (self.t_cool >= 0, "t_cool must be >= 0"),
            (self.n_grad >= 2, "n_grad must be >= 2"),
            (self.c_high >= 1, "c_high must be >= 1"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(f"{msg} (got {self})")


class Phase(str, Enum):
    WARMUP = "warmup"
    MONITORING = "monitoring"
    REPAIRING = "repairing"
    COOLDOWN = "cooldown"


class DecisionKind(str, Enum):
    NO_ACTION = "no_action"
    TRIGGER_REPAIR = "trigger_repair"
    CONTINUE_REPAIR = "continue_repair"
    AGGRESSIVE_RECOVER = "aggressive_recover"


@dataclass(frozen=True)
class Decision:
    kind: DecisionKind
    duration: int | None = None
    repair_index: int | None = None


_NO_ACTION = Decision(DecisionKind.NO_ACTION)


def prefilter(gradient: float, entropy: float, cfg: DetectorConfig) -> bool:
    """True when the entropy movement warrants the full spike check.

    Passes on a rapid surge (gradient >= g_min) or an extreme absolute
    level (entropy >= h_extreme); anything else is treated as a natural
    semantic transition.
    """
    return gradient >= cfg.g_min or entropy >= cfg.h_extreme


def is_spike(entropy: float, mu: float, sigma: float, cfg: DetectorConfig) -> bool:
    """Dual-threshold test: above mu + alpha*sigma and above the floor."""
    return entropy > mu + cfg.alpha * sigma and entropy >= cfg.h_min


def severity_duration(entropy: float, mu: float, sigma: float, cfg: DetectorConfig) -> int:
    """Repair length in steps, from the spike's excess in sigma units.

    s = (H - (mu + alpha*sigma)) / (sigma + EPSILON); 1 step for s < 1,
    2 for s < 2, 3 otherwise.
    """
    excess = (entropy - (mu + cfg.alpha * sigma)) / (sigma + EPSILON)
    if excess < 1.0:
        return 1
    if excess < 2.0:
        return 2
    return 3


class SpikeDetector:
    """Per-stream control state machine; advance() must be called once per step.

    The caller owns the step order and passes each step's index t. The
    countdown is d - 1 + t_cool after a trigger of severity d, t_cool after
    an aggressive recovery; a step that leaves it at t_cool or more repairs.
    """

    def __init__(self, cfg: DetectorConfig | None = None):
        self.cfg = cfg or DetectorConfig()
        self._above_mean = 0
        self._countdown = 0  # steps left of the current repair and its cooldown
        self._repair_count = 0

    @property
    def repair_count(self) -> int:
        """Number of repairs triggered so far (aggressive recoveries excluded)."""
        return self._repair_count

    def advance(
        self,
        t: int,
        entropy: float,
        mu: float | None,
        sigma: float | None,
        gradient: float | None,
    ) -> tuple[Phase, Decision]:
        """Evaluate step ``t`` and return (phase during the step, decision).

        ``mu``/``sigma`` are the window stats before the current entropy is
        pushed; None means no history yet, which counts as not above the
        mean. ``gradient`` is None when the tail is too short, in which case
        the pre-filter passes (fail-open) so early genuine spikes are not
        masked.
        """
        cfg = self.cfg
        if mu is not None and entropy > mu:
            self._above_mean += 1
        else:
            self._above_mean = 0

        if t < cfg.t_warm:
            return Phase.WARMUP, _NO_ACTION

        if self._countdown > 0:
            self._countdown -= 1
            if self._countdown >= cfg.t_cool:
                return Phase.REPAIRING, Decision(
                    DecisionKind.CONTINUE_REPAIR, repair_index=self._repair_count - 1
                )
            return Phase.COOLDOWN, _NO_ACTION

        if self._above_mean >= cfg.c_high:
            # Require a fresh run of above-mean steps before escalating again.
            self._above_mean = 0
            self._countdown = cfg.t_cool
            return Phase.MONITORING, Decision(DecisionKind.AGGRESSIVE_RECOVER)

        passes_prefilter = gradient is None or prefilter(gradient, entropy, cfg)
        if passes_prefilter and mu is not None and is_spike(entropy, mu, sigma, cfg):
            duration = severity_duration(entropy, mu, sigma, cfg)
            index = self._repair_count
            self._repair_count += 1
            self._countdown = duration - 1 + cfg.t_cool
            return Phase.MONITORING, Decision(
                DecisionKind.TRIGGER_REPAIR, duration=duration, repair_index=index
            )

        return Phase.MONITORING, _NO_ACTION
