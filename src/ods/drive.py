"""Four-field drive configuration and the Hamiltonian of each frame.

All frequencies and rates are expressed in units of the excited-state
coherence decay rate gamma31, times in 1/gamma31, hbar = 1.  The two
field pairs couple |1>-|3> and |2>-|3>; individual phases are locked to
phi1 = phi2 + pi = phi12 and phi3 = phi4 = phi34, so only the pair
phases are free inputs.
"""

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NotOdsError, ValidationError

ODS_TOL = 1e-12

# D1 line of 87Rb, for converting dimensionless results to SI.
GAMMA31_RB87_D1 = 36.10e6  # s^-1

FRAMES = ("effective", "full")
FIG2_OMEGA = {"a": 2.0, "b": 0.2, "c": 0.08}  # Rabi frequency of each published panel
RAMP_SHAPES = ("linear", "raised-cosine", "instantaneous", "counterintuitive")

# |sin| or |cos| of the beat phase at t_on below which a counter-intuitive
# upload counts as starting at a node of that pair's beat factor
PAIR_NODE_TOL = 1e-9


def require_finite(**values) -> None:
    """Raise ValidationError naming the first value that is NaN or infinite; None is skipped."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


def to_si_rate(x: float) -> float:
    """Convert a rate in gamma31 units to s^-1 (87Rb D1 reference)."""
    return x * GAMMA31_RB87_D1


def to_si_time(t: float) -> float:
    """Convert a time in 1/gamma31 units to seconds (87Rb D1 reference)."""
    return t / GAMMA31_RB87_D1


@dataclass(frozen=True)
class DriveParams:
    """Rabi frequencies, pair phases and detunings of the four laser fields.

    With ``require_ods`` (the default) the constructor rejects detuning
    combinations that break the oscillating-dark-state conditions: equal
    half-splittings (delta1-delta2)/2 == (delta3-delta4)/2 != 0 and zero
    two-pair detuning offset.  Pass ``require_ods=False`` to build general
    configurations for the evolver; the planner will refuse them.
    """

    omega12: float
    omega34: float
    delta1: float
    delta2: float
    delta3: float
    delta4: float
    phi12: float = 0.0
    phi34: float = 0.0
    require_ods: bool = field(default=True, compare=False)

    def __post_init__(self):
        require_finite(**vars(self))
        if self.omega12 < 0 or self.omega34 < 0:
            raise ValidationError("Rabi frequencies must be non-negative")
        if self.require_ods and not self.is_ods_valid:
            raise ValidationError(
                "detunings break the ODS conditions: need "
                "(delta1-delta2)/2 == (delta3-delta4)/2 != 0 and "
                "(delta1+delta2) == (delta3+delta4); "
                f"got half-splittings {self.delta}, {self.delta34} "
                f"and offset {self.big_delta_prime}"
            )

    @property
    def delta(self) -> float:
        """Half detuning splitting of the |1>-|3> pair, (delta1-delta2)/2."""
        return (self.delta1 - self.delta2) / 2.0

    @property
    def delta34(self) -> float:
        """Half detuning splitting of the |2>-|3> pair, (delta3-delta4)/2."""
        return (self.delta3 - self.delta4) / 2.0

    @property
    def big_delta(self) -> float:
        """Common detuning of the first pair, (delta1+delta2)/2."""
        return (self.delta1 + self.delta2) / 2.0

    @property
    def big_delta_prime(self) -> float:
        """Two-pair detuning offset, [(delta1+delta2)-(delta3+delta4)]/2."""
        return ((self.delta1 + self.delta2) - (self.delta3 + self.delta4)) / 2.0

    @property
    def delta_phi(self) -> float:
        return self.phi12 - self.phi34

    @property
    def is_ods_valid(self) -> bool:
        return (
            abs(self.delta - self.delta34) <= ODS_TOL
            and abs(self.big_delta_prime) <= ODS_TOL
            and self.delta != 0.0
        )

    @property
    def period(self) -> float:
        """Dark-state rotation period T = 2*pi/|delta|."""
        if self.delta == 0.0:
            raise ValidationError("period undefined: delta = 0")
        return 2.0 * math.pi / abs(self.delta)

    def ensure_ods(self) -> None:
        if not self.is_ods_valid:
            raise NotOdsError(
                "operation requires ODS-valid drive parameters "
                f"(half-splittings {self.delta}, {self.delta34}, "
                f"offset {self.big_delta_prime})"
            )

    @classmethod
    def ods(cls, omega12, omega34, delta, big_delta=0.0, phi12=0.0, phi34=0.0):
        """Build ODS-valid detunings from the half-splitting and common detuning."""
        return cls(
            omega12=omega12,
            omega34=omega34,
            delta1=big_delta + delta,
            delta2=big_delta - delta,
            delta3=big_delta + delta,
            delta4=big_delta - delta,
            phi12=phi12,
            phi34=phi34,
        )

    @classmethod
    def fig2(cls, variant: str = "a", delta_phi: float = 0.0):
        """The three published drive configurations (delta1=delta3=0.3, delta2=delta4=0.2)."""
        omega = FIG2_OMEGA.get(variant)
        if omega is None:
            raise ValidationError(f"unknown variant {variant!r}, expected a, b or c")
        return cls(
            omega12=omega,
            omega34=omega,
            delta1=0.3,
            delta2=0.2,
            delta3=0.3,
            delta4=0.2,
            phi12=delta_phi,
            phi34=0.0,
        )


@dataclass(frozen=True)
class EffectiveFields:
    """Effective couplings P (to |1>) and Q (to |2>) plus the common detunings."""

    p: complex
    q: complex
    big_delta: float
    big_delta_prime: float

    @property
    def coupling_sq(self) -> float:
        """|P|^2 + |Q|^2."""
        return abs(self.p) ** 2 + abs(self.q) ** 2


@dataclass(frozen=True)
class RampSchedule:
    """Amplitude envelopes of the two field pairs.

    Upload ramps over [t_on, t_on+tau], plateau until t_off, unload over
    [t_off, t_off+tau].  The "linear", "raised-cosine" and "instantaneous"
    shapes give all four fields one shared envelope.  That keeps the
    mixing angle theta = atan2(O12 sin(delta t), O34 cos(delta t)) off the
    envelope, but theta keeps turning at rate delta while the ramp closes
    the dark-bright gap, so a shared upload is never adiabatic at its
    start (see adiabaticity.ramp_margin).

    "counterintuitive" orders the pairs as in STIRAP: over the upload the
    pair whose beat factor vanishes at t_on (P when sin(delta t_on) = 0,
    Q when cos(delta t_on) = 0) ramps with the raised cosine, while the
    other pair is at full amplitude from t_on.  theta then starts turning
    from rest and the state follows the dark state adiabatically.  Any
    other t_on is rejected by ramped_pair.  The unload is the shared
    raised-cosine ramp-down.
    """

    tau: float
    t_on: float = 0.0
    t_off: float = math.inf
    shape: str = "raised-cosine"

    def __post_init__(self):
        if self.shape not in RAMP_SHAPES:
            raise ValidationError(f"unknown ramp shape {self.shape!r}")
        require_finite(tau=self.tau, t_on=self.t_on)
        if math.isnan(self.t_off):
            raise ValidationError("t_off must not be NaN (+inf keeps the fields on)")
        if self.tau < 0:
            raise ValidationError("ramp duration tau must be >= 0")
        if self.shape == "instantaneous" and self.tau != 0.0:
            raise ValidationError("instantaneous schedule requires tau = 0")
        if self.t_off < self.t_on + self.tau:
            raise ValidationError("need t_off >= t_on + tau")

    @classmethod
    def for_params(cls, params: DriveParams, tau_fraction: float = 0.01, **kw):
        """Default schedule: raised-cosine ramps of 0.01 T."""
        return cls(tau=tau_fraction * params.period, **kw)

    def envelope(self, t):
        """Envelope value in [0, 1]; accepts scalars or arrays.

        For a counter-intuitive schedule this is the envelope of the
        ramped pair; pair_envelopes gives both.
        """
        if np.ndim(t) == 0:
            return self._scalar_envelope(float(t))
        t = np.asarray(t, dtype=float)
        return np.array([self._scalar_envelope(x) for x in t])

    def _scalar_envelope(self, t: float) -> float:
        if t < self.t_on or t >= self.t_off + self.tau:
            return 0.0
        if self.tau == 0.0:
            return 1.0 if t < self.t_off else 0.0
        if t < self.t_on + self.tau:
            x = (t - self.t_on) / self.tau
        elif t < self.t_off:
            return 1.0
        else:
            x = 1.0 - (t - self.t_off) / self.tau
        if self.shape == "linear":
            return x
        return math.sin(math.pi * x / 2.0) ** 2

    def _envelope_rate(self, t: float) -> float:
        """d/dt of the envelope at scalar t (0 outside the ramps)."""
        if self.tau == 0.0 or t < self.t_on or t >= self.t_off + self.tau:
            return 0.0
        if t < self.t_on + self.tau:
            x, sign = (t - self.t_on) / self.tau, 1.0
        elif t < self.t_off:
            return 0.0
        else:
            x, sign = 1.0 - (t - self.t_off) / self.tau, -1.0
        if self.shape == "linear":
            return sign / self.tau
        return sign * math.pi / (2.0 * self.tau) * math.sin(math.pi * x)

    def ramped_pair(self, params: DriveParams) -> str:
        """Pair ramped by a counter-intuitive upload: "P" (|1>-|3>) or "Q" (|2>-|3>).

        Raises ValidationError unless the beat factor of P or Q vanishes
        at t_on.
        """
        if abs(math.sin(params.delta * self.t_on)) <= PAIR_NODE_TOL:
            return "P"
        if abs(math.cos(params.delta34 * self.t_on)) <= PAIR_NODE_TOL:
            return "Q"
        raise ValidationError(
            "counterintuitive upload needs sin(delta t_on) = 0 or cos(delta t_on) = 0; "
            f"got t_on = {self.t_on}"
        )

    def _pair_split(self, params: DriveParams, t: float, ramped: float, held: float):
        if self.shape == "counterintuitive" and self.t_on <= t < self.t_on + self.tau:
            return (ramped, held) if self.ramped_pair(params) == "P" else (held, ramped)
        return ramped, ramped

    def pair_envelopes(self, params: DriveParams, t: float):
        """Envelopes (eps_P, eps_Q) of the |1>-|3> and |2>-|3> pairs at scalar t."""
        return self._pair_split(params, t, self._scalar_envelope(t), 1.0)

    def pair_envelope_rates(self, params: DriveParams, t: float):
        """Time derivatives of pair_envelopes at scalar t."""
        return self._pair_split(params, t, self._envelope_rate(t), 0.0)


def couplings(params: DriveParams, schedule: RampSchedule, t: float, frame: str = "effective"):
    """(<3|H|1>, <3|H|2>) of the frame's Hamiltonian at time t, each pair scaled by its envelope.

    The effective frame gives P and Q.  The full frame is the explicit
    four-field sum -1/2 O12 [e^{-i phi1} e^{i delta1 t} + e^{-i phi2} e^{i delta2 t}]
    and its O34 twin, with phi1 = phi12, phi2 = phi12 - pi, phi3 = phi4 = phi34.
    """
    eps_p, eps_q = schedule.pair_envelopes(params, t)
    if frame == "effective":
        p = -1j * cmath.exp(-1j * params.phi12) * eps_p * params.omega12 * math.sin(params.delta * t)
        q = -cmath.exp(-1j * params.phi34) * eps_q * params.omega34 * math.cos(params.delta34 * t)
        return p, q
    if frame != "full":
        raise ValidationError(f"unknown frame {frame!r}, expected one of {FRAMES}")
    phi1, phi2, phi34 = params.phi12, params.phi12 - math.pi, params.phi34
    h31 = -0.5 * eps_p * params.omega12 * (
        cmath.exp(1j * (params.delta1 * t - phi1)) + cmath.exp(1j * (params.delta2 * t - phi2))
    )
    h32 = -0.5 * eps_q * params.omega34 * (
        cmath.exp(1j * (params.delta3 * t - phi34)) + cmath.exp(1j * (params.delta4 * t - phi34))
    )
    return h31, h32


def frame_detunings(params: DriveParams, frame: str = "effective"):
    """Constant diagonal of the frame's Hamiltonian: (0, D', D) effective, zero full."""
    if frame not in FRAMES:
        raise ValidationError(f"unknown frame {frame!r}, expected one of {FRAMES}")
    return (0.0, params.big_delta_prime, params.big_delta) if frame == "effective" else (0.0,) * 3


def hamiltonian(
    params: DriveParams, schedule: RampSchedule, t: float, frame: str = "effective"
) -> np.ndarray:
    """H on (|1>,|2>,|3>) at time t: frame_detunings on the diagonal, couplings off it.

    The effective frame gives [[0,0,P*],[0,D',Q*],[P,Q,D]]; it differs from
    the full frame by a diagonal time-dependent phase transformation.
    """
    h31, h32 = couplings(params, schedule, t, frame)
    d1, d2, d3 = frame_detunings(params, frame)
    return np.array([[d1, 0.0, h31.conjugate()], [0.0, d2, h32.conjugate()], [h31, h32, d3]],
                    dtype=complex)


def effective_fields(params: DriveParams, schedule: RampSchedule, t: float) -> EffectiveFields:
    """Effective couplings P, Q of the rotating-frame Hamiltonian at time t."""
    p, q = couplings(params, schedule, t)
    return EffectiveFields(p, q, params.big_delta, params.big_delta_prime)


def with_delta_phi(params: DriveParams, delta_phi: float) -> DriveParams:
    """Copy of params with phi34 adjusted so that phi12 - phi34 = delta_phi."""
    return replace(params, phi34=params.phi12 - delta_phi)
