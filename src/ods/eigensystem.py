"""Instantaneous eigensystem of the rotating-frame Hamiltonian.

Analytic dark/bright states and eigenvalues in terms of the mixing
angles theta and varphi, plus a numerical diagonalization oracle used
to cross-check the analytic forms.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import drive
from .errors import ValidationError


@dataclass(frozen=True)
class EigenSystem:
    """Dark state a0 (eigenvalue 0) and bright states a+/- with lambda+/-."""

    a0: np.ndarray
    a_plus: np.ndarray
    a_minus: np.ndarray
    lambda_plus: float
    lambda_minus: float
    degenerate: bool = False


def mixing_theta(
    params: drive.DriveParams, t: float, schedule: drive.RampSchedule | None = None
) -> float:
    """Ground-level mixing angle, atan2(eps_P O12 sin(delta t), eps_Q O34 cos(delta t)).

    eps_P, eps_Q are the pair envelopes of schedule at t.  A shared
    envelope cancels from the ratio, so without a schedule, and wherever
    the two envelopes agree, this is the plateau angle
    atan2(O12 sin(delta t), O34 cos(delta t)).  Only a counter-intuitive
    upload departs from it, during [t_on, t_on+tau].  The value is the
    atan2 branch in (-pi, pi]; use unwrap_theta for a continuous angle
    along a trajectory.
    """
    params.ensure_ods()
    o12, o34 = params.omega12, params.omega34
    if schedule is not None:
        eps_p, eps_q = schedule.pair_envelopes(params, t)
        if eps_p != eps_q:
            o12, o34 = eps_p * o12, eps_q * o34
    if o12 == 0.0 and o34 == 0.0:
        return 0.0
    return math.atan2(o12 * math.sin(params.delta * t), o34 * math.cos(params.delta * t))


def unwrap_theta(params: drive.DriveParams, times) -> np.ndarray:
    """mixing_theta along a sampled trajectory, unwrapped continuously."""
    raw = np.array([mixing_theta(params, t) for t in np.asarray(times, dtype=float)])
    return np.unwrap(raw)


def mixing_varphi(fields: drive.EffectiveFields) -> float:
    """Bright-state mixing angle in [0, pi/2], from tan(2 varphi) = 2 sqrt(|P|^2+|Q|^2)/Delta."""
    coupling = math.sqrt(fields.coupling_sq)
    return 0.5 * math.atan2(2.0 * coupling, fields.big_delta)


def dark_state(
    params: drive.DriveParams, t: float, schedule: drive.RampSchedule | None = None
) -> np.ndarray:
    """|a0> = cos(theta)|1> - i e^{-i delta_phi} sin(theta)|2>; no |3> amplitude.

    theta = mixing_theta(params, t, schedule).  Without a schedule this is
    the plateau dark state, which a counter-intuitive upload departs from
    during [t_on, t_on+tau]; pass the schedule to follow the upload.
    """
    params.ensure_ods()
    th = mixing_theta(params, t, schedule)
    return np.array(
        [math.cos(th), -1j * np.exp(-1j * params.delta_phi) * math.sin(th), 0.0],
        dtype=complex,
    )


def bright_states(params: drive.DriveParams, schedule: drive.RampSchedule, t: float):
    """Bright eigenstates and their eigenvalues at time t.

    Returns (a_plus, a_minus, lambda_plus, lambda_minus) with
    lambda+/- = (Delta +/- sqrt(Delta^2 + 4|P|^2 + 4|Q|^2)) / 2.
    Both take the pair envelopes of schedule at t.
    """
    params.ensure_ods()
    fields = drive.effective_fields(params, schedule, t)
    th = mixing_theta(params, t, schedule)
    ph = mixing_varphi(fields)
    dphi = params.delta_phi
    phase1 = -1j * np.exp(1j * dphi) * math.sin(th)
    phase3 = np.exp(-1j * params.phi34)
    a_plus = np.array(
        [phase1 * math.sin(ph), math.cos(th) * math.sin(ph), -math.cos(ph) * phase3],
        dtype=complex,
    )
    a_minus = np.array(
        [phase1 * math.cos(ph), math.cos(th) * math.cos(ph), math.sin(ph) * phase3],
        dtype=complex,
    )
    root = math.sqrt(fields.big_delta**2 + 4.0 * fields.coupling_sq)
    lam_plus = 0.5 * (fields.big_delta + root)
    lam_minus = 0.5 * (fields.big_delta - root)
    return a_plus, a_minus, lam_plus, lam_minus


def analytic_eigensystem(params, schedule, t) -> EigenSystem:
    """Full analytic eigensystem; flags the degenerate all-fields-off case."""
    a0 = dark_state(params, t, schedule)
    a_plus, a_minus, lam_plus, lam_minus = bright_states(params, schedule, t)
    degenerate = drive.effective_fields(params, schedule, t).coupling_sq == 0.0
    return EigenSystem(a0, a_plus, a_minus, lam_plus, lam_minus, degenerate=degenerate)


def numerical_eigensystem(h: np.ndarray):
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian 3x3 matrix."""
    h = np.asarray(h, dtype=complex)
    if np.max(np.abs(h - h.conj().T)) > 1e-12:
        raise ValidationError("numerical_eigensystem requires a Hermitian matrix")
    return np.linalg.eigh(h)


def phase_align(vec: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Multiply vec by the global phase maximizing real overlap with ref."""
    ov = np.vdot(vec, ref)
    if abs(ov) == 0.0:
        return vec
    return vec * (ov / abs(ov))
