import math

import numpy as np
import pytest

from ods import (
    DriveParams,
    RampSchedule,
    ValidationError,
    effective_fields,
    hamiltonian,
)
from tests.conftest import random_ods_params

PLATEAU = RampSchedule(tau=0.0, shape="instantaneous")
FIG2A = dict(omega12=2.0, omega34=2.0, delta1=0.3, delta2=0.2, delta3=0.3, delta4=0.2)


class TestDriveParams:
    def test_derived_quantities(self, params_a):
        assert params_a.delta == pytest.approx(0.05)
        assert params_a.big_delta == pytest.approx(0.25)
        assert params_a.big_delta_prime == 0.0
        assert params_a.period == pytest.approx(2 * math.pi / 0.05)

    def test_ods_constructor_rejects_mismatched_splittings(self):
        with pytest.raises(ValidationError):
            DriveParams(2, 2, delta1=0.3, delta2=0.2, delta3=0.4, delta4=0.1)

    def test_ods_constructor_rejects_nonzero_offset(self):
        with pytest.raises(ValidationError):
            DriveParams(2, 2, delta1=0.3, delta2=0.2, delta3=0.2, delta4=0.1)

    @pytest.mark.parametrize("field", ["omega12", "delta1", "phi34"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            DriveParams(**{**FIG2A, field: value}, require_ods=False)

    def test_general_params_constructible_when_flagged(self):
        p = DriveParams(2, 2, 0.3, 0.2, 0.4, 0.1, require_ods=False)
        assert not p.is_ods_valid

    def test_negative_rabi_rejected(self):
        with pytest.raises(ValidationError):
            DriveParams(-1, 2, 0.3, 0.2, 0.3, 0.2)

    def test_fig2_variants(self):
        assert DriveParams.fig2("b").omega12 == 0.2
        assert DriveParams.fig2("c").omega34 == 0.08
        with pytest.raises(ValidationError):
            DriveParams.fig2("d")


class TestEnvelope:
    def test_instantaneous(self):
        s = RampSchedule(tau=0.0, shape="instantaneous")
        assert s.envelope(0.0) == 1.0
        assert s.envelope(100.0) == 1.0
        assert s.envelope(-0.1) == 0.0

    def test_linear_midpoint(self):
        s = RampSchedule(tau=1.0, shape="linear")
        assert s.envelope(0.5) == pytest.approx(0.5)

    def test_raised_cosine_midpoint(self):
        s = RampSchedule(tau=1.0, shape="raised-cosine")
        assert s.envelope(0.5) == pytest.approx(0.5)

    def test_plateau_and_unload(self):
        s = RampSchedule(tau=1.0, t_on=0.0, t_off=10.0, shape="linear")
        assert s.envelope(5.0) == 1.0
        assert s.envelope(10.5) == pytest.approx(0.5)
        assert s.envelope(11.5) == 0.0

    def test_monotone_and_continuous(self):
        s = RampSchedule(tau=2.0, shape="raised-cosine")
        ts = np.linspace(-0.5, 2.5, 301)
        vals = s.envelope(ts)
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.max(np.abs(np.diff(vals))) < 0.02

    def test_invalid_schedules(self):
        with pytest.raises(ValidationError):
            RampSchedule(tau=-1.0)
        with pytest.raises(ValidationError):
            RampSchedule(tau=2.0, t_on=0.0, t_off=1.0)
        with pytest.raises(ValidationError):
            RampSchedule(tau=1.0, shape="instantaneous")
        for bad in ({"tau": math.nan}, {"tau": math.inf}, {"t_on": math.nan},
                    {"t_on": -math.inf}, {"t_off": math.nan}, {"t_off": -math.inf}):
            with pytest.raises(ValidationError):
                RampSchedule(**{"tau": 1.0, **bad})
        assert RampSchedule(tau=1.0, t_off=math.inf).t_off == math.inf

    def test_counterintuitive_pair_order(self, params_a):
        quarter = params_a.period / 4.0
        s = RampSchedule(tau=2.0, shape="counterintuitive")
        assert s.ramped_pair(params_a) == "P"
        assert s.pair_envelopes(params_a, 1.0) == (pytest.approx(0.5), 1.0)
        assert s.pair_envelopes(params_a, 3.0) == (1.0, 1.0)
        assert s.pair_envelopes(params_a, -1.0) == (0.0, 0.0)
        late = RampSchedule(tau=2.0, t_on=quarter, t_off=quarter + 10.0,
                            shape="counterintuitive")
        assert late.ramped_pair(params_a) == "Q"
        assert late.pair_envelopes(params_a, quarter + 1.0) == (1.0, pytest.approx(0.5))
        # the unload is shared
        assert late.pair_envelopes(params_a, quarter + 11.0) == (pytest.approx(0.5),) * 2
        with pytest.raises(ValidationError):
            RampSchedule(tau=2.0, t_on=10.0, shape="counterintuitive").ramped_pair(params_a)

    def test_counterintuitive_rates_match_finite_difference(self):
        s = RampSchedule(tau=2.0, t_on=3.0, t_off=9.0, shape="counterintuitive")
        p = DriveParams.ods(2.0, 2.0, delta=math.pi / 3.0)  # sin(delta t_on) = 0
        h = 1e-6
        for t in (3.4, 4.7, 10.2):
            lo, hi = s.pair_envelopes(p, t - h), s.pair_envelopes(p, t + h)
            fd = [(b - a) / (2 * h) for a, b in zip(lo, hi)]
            assert s.pair_envelope_rates(p, t) == pytest.approx(fd, rel=1e-6)


class TestEffectiveFields:
    def test_t_zero(self, params_a):
        f = effective_fields(params_a, PLATEAU, 0.0)
        assert f.p == 0.0
        assert f.q == pytest.approx(-2.0)  # phi34 = 0

    def test_quarter_period(self, params_a):
        f = effective_fields(params_a, PLATEAU, params_a.period / 4.0)
        assert f.p == pytest.approx(-2.0j, abs=1e-12)
        assert abs(f.q) == pytest.approx(0.0, abs=1e-12)

    def test_fig2_values_at_t10(self, params_a):
        # delta = 0.05, t = 10 -> |P| = 2|sin 0.5|, |Q| = 2|cos 0.5|
        f = effective_fields(params_a, PLATEAU, 10.0)
        assert abs(f.p) == pytest.approx(2 * abs(math.sin(0.5)))
        assert abs(f.q) == pytest.approx(2 * abs(math.cos(0.5)))
        assert f.coupling_sq == pytest.approx(4.0)

    def test_constant_total_coupling(self, params_a):
        for t in np.linspace(0.0, 2 * params_a.period, 57):
            f = effective_fields(params_a, PLATEAU, t)
            assert f.coupling_sq == pytest.approx(4.0, abs=1e-12)


class TestEffectiveHamiltonian:
    def test_all_fields_off(self):
        p = DriveParams.ods(0.0, 0.0, delta=0.05, big_delta=0.25)
        h = hamiltonian(p, PLATEAU, 7.0)
        np.testing.assert_allclose(h, np.diag([0.0, 0.0, 0.25]).astype(complex))

    def test_only_q_couples_at_t0(self, params_a):
        h = hamiltonian(params_a, PLATEAU, 0.0)
        assert h[2, 0] == 0.0
        assert h[2, 1] != 0.0

    def test_hermitian(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_ods_params(rng)
            h = hamiltonian(p, PLATEAU, rng.uniform(0, 200))
            assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_eigenvalues_match_closed_form(self, params_a):
        # spectrum {0, (D +- sqrt(D^2+4|P|^2+4|Q|^2))/2} at t = T/8
        h = hamiltonian(params_a, PLATEAU, params_a.period / 8.0)
        root = math.sqrt(0.25**2 + 4 * 4.0)
        expected = sorted([0.0, 0.5 * (0.25 + root), 0.5 * (0.25 - root)])
        np.testing.assert_allclose(np.linalg.eigvalsh(h), expected, atol=1e-10)


class TestFullHamiltonian:
    def test_all_fields_off(self):
        p = DriveParams.ods(0.0, 0.0, delta=0.05, big_delta=0.25)
        h = hamiltonian(p, PLATEAU, 3.0, frame="full")
        np.testing.assert_array_equal(h, np.zeros((3, 3)))

    def test_pair_cancellation_at_t0(self, params_a):
        # phi1 = phi2 + pi makes the two sigma_31 terms cancel at t = 0
        h = hamiltonian(params_a, PLATEAU, 0.0, frame="full")
        assert abs(h[2, 0]) < 1e-15

    def test_entries_match_closed_form(self):
        # (3,1) = -i O12 e^{-i phi12} e^{i D t} sin(delta t)
        # (3,2) = -O34 e^{-i phi34} e^{i (D - D') t} cos(delta t)
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = random_ods_params(rng)
            t = rng.uniform(0, 300)
            h = hamiltonian(p, PLATEAU, t, frame="full")
            e31 = (-1j * p.omega12 * np.exp(-1j * p.phi12)
                   * np.exp(1j * p.big_delta * t) * np.sin(p.delta * t))
            e32 = (-p.omega34 * np.exp(-1j * p.phi34)
                   * np.exp(1j * (p.big_delta - p.big_delta_prime) * t)
                   * np.cos(p.delta34 * t))
            assert abs(h[2, 0] - e31) < 1e-12
            assert abs(h[2, 1] - e32) < 1e-12

    def test_relates_to_effective_fields(self, params_a):
        # entry (3,1) equals P e^{i Delta t} on 100 random times
        rng = np.random.default_rng(6)
        for t in rng.uniform(0, 500, size=100):
            h = hamiltonian(params_a, PLATEAU, t, frame="full")
            f = effective_fields(params_a, PLATEAU, t)
            assert abs(h[2, 0] - f.p * np.exp(1j * f.big_delta * t)) < 1e-12

    def test_counterintuitive_pair_envelopes(self, params_a):
        # during the upload each frame scales its pair by its own envelope
        s = RampSchedule(tau=0.1 * params_a.period, shape="counterintuitive")
        for t in (0.3, 4.0, 9.0):
            eps_p, eps_q = s.pair_envelopes(params_a, t)
            f = effective_fields(params_a, s, t)
            h = hamiltonian(params_a, s, t, frame="full")
            assert eps_p < eps_q == 1.0
            assert f.p == pytest.approx(eps_p * effective_fields(params_a, PLATEAU, t).p)
            assert f.q == pytest.approx(effective_fields(params_a, PLATEAU, t).q)
            assert abs(h[2, 0] - f.p * np.exp(1j * f.big_delta * t)) < 1e-12
            assert abs(h[2, 1] - f.q * np.exp(1j * f.big_delta * t)) < 1e-12

    def test_hermitian(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = random_ods_params(rng)
            h = hamiltonian(p, PLATEAU, rng.uniform(0, 200), frame="full")
            assert np.max(np.abs(h - h.conj().T)) < 1e-14


def test_common_phase_shift_preserves_spectrum(params_a, schedule_a):
    from dataclasses import replace

    for chi in (0.3, -1.2, 2.9):
        shifted = replace(params_a, phi12=params_a.phi12 + chi, phi34=params_a.phi34 + chi)
        for t in (3.0, 40.0, 77.7):
            e1 = np.linalg.eigvalsh(hamiltonian(params_a, schedule_a, t))
            e2 = np.linalg.eigvalsh(hamiltonian(shifted, schedule_a, t))
            np.testing.assert_allclose(e1, e2, atol=1e-12)
