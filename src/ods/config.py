"""Flat key=value experiment configuration.

The document format is one ``key = value`` per line, ``#`` comments,
UTF-8.  Unknown keys are rejected with the offending line number.  The
shipped defaults are the published strong-drive configuration (omega =
2, delta1 = delta3 = 0.3, delta2 = delta4 = 0.2, gamma2_deph = 0.02,
gamma21_long = 0.002).  ``render_config(parse_config(text))`` is
canonical: parse(render(cfg)) == cfg for every valid cfg.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .drive import FRAMES, DriveParams, RampSchedule
from .errors import ConfigError, ValidationError
from .evolver import DecoherenceRates, IntegratorConfig
from .planner import TargetState

_FLOAT_KEYS = {
    "omega", "omega12", "omega34", "phi12", "phi34",
    "delta1", "delta2", "delta3", "delta4",
    "gamma31_se", "gamma32_se", "gamma3_deph", "gamma2_deph", "gamma21_long",
    "tau", "t_on", "t_off",
    "step", "abs_tol", "rel_tol", "sample_interval",
    "t_final", "target_alpha", "target_beta",
}
_INT_KEYS = {"n_periods"}
_STR_KEYS = {"ramp_shape", "method", "frame", "initial_state"}
_BOOL_KEYS = {"allow_non_ods"}
KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | _BOOL_KEYS

_INITIAL_STATES = ("1", "2", "3", "mixed")


@dataclass(frozen=True)
class RunOptions:
    frame: str = "effective"
    t_final: float | None = None
    n_periods: int | None = None
    initial_state: str = "1"
    target_alpha: float | None = None
    target_beta: float = 0.0
    allow_non_ods: bool = False

    def __post_init__(self):
        if self.frame not in FRAMES:
            raise ValidationError(f"frame must be one of {FRAMES}, got {self.frame!r}")
        if self.initial_state not in _INITIAL_STATES:
            raise ValidationError(
                f"initial_state must be one of {_INITIAL_STATES}, got {self.initial_state!r}"
            )
        if self.n_periods is not None and self.n_periods < 1:
            raise ValidationError(f"n_periods must be >= 1, got {self.n_periods}")
        if self.t_final is not None and not 0.0 < self.t_final < math.inf:
            raise ValidationError(f"t_final must be finite and > 0, got {self.t_final}")


@dataclass(frozen=True)
class ExperimentConfig:
    drive: DriveParams
    rates: DecoherenceRates
    schedule: RampSchedule
    integrator: IntegratorConfig
    run: RunOptions = field(default_factory=RunOptions)

    @property
    def t_final(self) -> float:
        """Resolved simulation end time (default 4 T)."""
        if self.run.t_final is not None:
            return self.run.t_final
        if self.run.n_periods is not None:
            try:
                t_final = self.run.n_periods * self.drive.period
            except OverflowError:  # an int beyond the float range
                t_final = math.inf
            if t_final == math.inf:
                raise ValidationError("n_periods times the period is not a finite time")
            return t_final
        return 4.0 * self.drive.period

    def initial_density(self) -> np.ndarray:
        if self.run.initial_state == "mixed":
            return np.eye(3, dtype=complex) / 3.0
        return core.pure_density(core.basis_state(int(self.run.initial_state)))

    def target(self) -> TargetState | None:
        if self.run.target_alpha is None:
            return None
        return TargetState(self.run.target_alpha, self.run.target_beta)


def parse_items(text: str) -> dict:
    """Syntax pass: key=value lines to a raw string dict, rejecting unknowns."""
    items = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in items:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        if not value:
            raise ConfigError(f"empty value for key {key!r}", line=lineno)
        items[key] = (value, lineno)
    return items


def _convert(key, value, lineno):
    try:
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _INT_KEYS:
            return int(value)
        if key in _BOOL_KEYS:
            if value.lower() in ("true", "1", "yes"):
                return True
            if value.lower() in ("false", "0", "no"):
                return False
            raise ValueError(value)
        return value
    except ValueError:
        raise ConfigError(f"bad value {value!r} for key {key!r}", line=lineno) from None


def config_from_items(items: dict) -> ExperimentConfig:
    """Typed values + defaults -> validated ExperimentConfig."""
    vals = {k: _convert(k, v, ln) for k, (v, ln) in items.items()}

    omega = vals.pop("omega", None)
    if omega is not None:
        vals.setdefault("omega12", omega)
        vals.setdefault("omega34", omega)

    run = RunOptions(
        frame=vals.pop("frame", "effective"),
        t_final=vals.pop("t_final", None),
        n_periods=vals.pop("n_periods", None),
        initial_state=vals.pop("initial_state", "1"),
        target_alpha=vals.pop("target_alpha", None),
        target_beta=vals.pop("target_beta", 0.0),
        allow_non_ods=vals.pop("allow_non_ods", False),
    )
    params = DriveParams(
        omega12=vals.pop("omega12", 2.0),
        omega34=vals.pop("omega34", 2.0),
        delta1=vals.pop("delta1", 0.3),
        delta2=vals.pop("delta2", 0.2),
        delta3=vals.pop("delta3", 0.3),
        delta4=vals.pop("delta4", 0.2),
        phi12=vals.pop("phi12", 0.0),
        phi34=vals.pop("phi34", 0.0),
        require_ods=not run.allow_non_ods,
    )
    rates = DecoherenceRates(
        gamma31_se=vals.pop("gamma31_se", 0.5),
        gamma32_se=vals.pop("gamma32_se", 0.5),
        gamma3_deph=vals.pop("gamma3_deph", 0.0),
        gamma2_deph=vals.pop("gamma2_deph", 0.02),
        gamma21_long=vals.pop("gamma21_long", 0.002),
    )
    tau = vals.pop("tau", None)
    if tau is None:
        tau = 0.01 * params.period if params.is_ods_valid else 0.0
    schedule = RampSchedule(
        tau=tau,
        t_on=vals.pop("t_on", 0.0),
        t_off=vals.pop("t_off", math.inf),
        shape=vals.pop("ramp_shape", "raised-cosine"),
    )
    integrator = IntegratorConfig(
        method=vals.pop("method", "rk45-adaptive"),
        step=vals.pop("step", None),
        abs_tol=vals.pop("abs_tol", 1e-9),
        rel_tol=vals.pop("rel_tol", 1e-9),
        sample_interval=vals.pop("sample_interval", None),
    )
    assert not vals, f"unconsumed keys: {sorted(vals)}"
    return ExperimentConfig(params, rates, schedule, integrator, run)


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a config document, optionally overlaying key=value overrides."""
    items = parse_items(text)
    for key, value in (overrides or {}).items():
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        items[key] = (value, 0)
    return config_from_items(items)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_config(cfg: ExperimentConfig) -> str:
    """One canonical rendering; optional unset fields are omitted."""
    d, r, s, i, run = cfg.drive, cfg.rates, cfg.schedule, cfg.integrator, cfg.run
    pairs = [
        ("omega12", d.omega12), ("omega34", d.omega34),
        ("phi12", d.phi12), ("phi34", d.phi34),
        ("delta1", d.delta1), ("delta2", d.delta2),
        ("delta3", d.delta3), ("delta4", d.delta4),
        ("gamma31_se", r.gamma31_se), ("gamma32_se", r.gamma32_se),
        ("gamma3_deph", r.gamma3_deph), ("gamma2_deph", r.gamma2_deph),
        ("gamma21_long", r.gamma21_long),
        ("ramp_shape", s.shape), ("tau", s.tau),
        ("t_on", s.t_on), ("t_off", s.t_off),
        ("method", i.method), ("step", i.step),
        ("abs_tol", i.abs_tol), ("rel_tol", i.rel_tol),
        ("sample_interval", i.sample_interval),
        ("frame", run.frame), ("t_final", run.t_final),
        ("n_periods", run.n_periods), ("initial_state", run.initial_state),
        ("target_alpha", run.target_alpha), ("target_beta", run.target_beta),
        ("allow_non_ods", run.allow_non_ods),
    ]
    return "".join(f"{k} = {_fmt(v)}\n" for k, v in pairs if v is not None)
