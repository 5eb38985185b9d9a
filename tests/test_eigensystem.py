import math

import numpy as np
import pytest

from ods import (
    DriveParams,
    NotOdsError,
    RampSchedule,
    ValidationError,
    analytic_eigensystem,
    bright_states,
    dark_state,
    effective_fields,
    hamiltonian,
    mixing_theta,
    mixing_varphi,
    numerical_eigensystem,
    unwrap_theta,
)
from ods.eigensystem import phase_align
from tests.conftest import random_ods_params

PLATEAU = RampSchedule(tau=0.0, shape="instantaneous")


class TestMixingTheta:
    def test_zero_at_t0(self, params_a):
        assert mixing_theta(params_a, 0.0) == 0.0

    def test_quarter_period(self, params_a):
        assert mixing_theta(params_a, params_a.period / 4) == pytest.approx(math.pi / 2)

    def test_unequal_rabi(self):
        # omega12 = 2 omega34, delta t = pi/4 -> theta = atan(2)
        p = DriveParams.ods(2.0, 1.0, delta=0.05)
        t = (math.pi / 4) / 0.05
        assert mixing_theta(p, t) == pytest.approx(1.1071487177940904)

    def test_equal_rabi_is_delta_t(self, params_a):
        for t in (1.0, 17.3, 55.0):
            assert mixing_theta(params_a, t) == pytest.approx(0.05 * t, abs=1e-12)

    def test_requires_ods(self):
        p = DriveParams(2, 2, 0.3, 0.2, 0.4, 0.1, require_ods=False)
        with pytest.raises(NotOdsError):
            mixing_theta(p, 1.0)

    def test_unwrap_continuity(self, params_a):
        ts = np.linspace(0.0, 3 * params_a.period, 3000)
        theta = unwrap_theta(params_a, ts)
        assert np.max(np.abs(np.diff(theta))) < math.pi / 2
        np.testing.assert_allclose(theta, 0.05 * ts, atol=1e-9)


class TestMixingVarphi:
    def test_resonant_limit(self, params_a):
        f = effective_fields(params_a, PLATEAU, 10.0)
        from dataclasses import replace

        assert mixing_varphi(replace(f, big_delta=0.0)) == pytest.approx(math.pi / 4)

    def test_no_field_limit(self):
        p = DriveParams.ods(0.0, 0.0, delta=0.05, big_delta=0.25)
        assert mixing_varphi(effective_fields(p, PLATEAU, 3.0)) == 0.0

    def test_reference_value(self, params_a):
        # Delta = 0.25, sqrt(|P|^2+|Q|^2) = 2 -> varphi = atan(16)/2
        f = effective_fields(params_a, PLATEAU, 10.0)
        assert mixing_varphi(f) == pytest.approx(0.7541887583994696)

    def test_tangent_relation(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = random_ods_params(rng)
            f = effective_fields(p, PLATEAU, rng.uniform(0, 100))
            ph = mixing_varphi(f)
            if abs(f.big_delta) > 1e-6 and abs(ph - math.pi / 4) > 1e-8:
                lhs = math.tan(2 * ph) * f.big_delta
                assert lhs == pytest.approx(2 * math.sqrt(f.coupling_sq), abs=1e-10)


class TestDarkState:
    def test_initial_state(self, params_a):
        np.testing.assert_allclose(dark_state(params_a, 0.0), [1.0, 0.0, 0.0])

    def test_full_transfer_point(self, params_a):
        a0 = dark_state(params_a, params_a.period / 4)
        assert abs(a0[0]) < 1e-12
        assert abs(a0[1]) == pytest.approx(1.0)
        assert a0[2] == 0.0

    def test_equal_superposition_with_planned_phase(self):
        # theta = pi/4, delta_phi = 3 pi/2 -> (|1> + |2>)/sqrt(2) up to global phase
        p = DriveParams.ods(2.0, 2.0, delta=0.05, big_delta=0.25, phi12=3 * math.pi / 2)
        a0 = dark_state(p, p.period / 8)
        target = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        assert abs(np.vdot(target, a0)) == pytest.approx(1.0, abs=1e-12)

    def test_no_excited_amplitude_and_null_eigenvector(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = random_ods_params(rng)
            t = rng.uniform(0, 300)
            a0 = dark_state(p, t)
            assert a0[2] == 0.0
            h = hamiltonian(p, PLATEAU, t)
            assert np.linalg.norm(h @ a0) < 1e-10


class TestBrightStates:
    def test_resonant_eigenvalues(self):
        p = DriveParams.ods(2.0, 2.0, delta=0.05, big_delta=0.0)
        _, _, lp, lm = bright_states(p, PLATEAU, 10.0)
        assert lp == pytest.approx(2.0)
        assert lm == pytest.approx(-2.0)

    def test_reference_eigenvalues(self, params_a):
        _, _, lp, lm = bright_states(params_a, PLATEAU, 10.0)
        assert lp == pytest.approx(2.128902442735175)
        assert lm == pytest.approx(-1.8789024427351748)

    def test_no_field_degenerate(self):
        p = DriveParams.ods(0.0, 0.0, delta=0.05, big_delta=0.25)
        _, _, lp, lm = bright_states(p, PLATEAU, 3.0)
        assert lp == pytest.approx(0.25)
        assert lm == pytest.approx(0.0)
        assert analytic_eigensystem(p, PLATEAU, 3.0).degenerate

    def test_trace_and_determinant_identities(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = random_ods_params(rng)
            t = rng.uniform(0, 300)
            f = effective_fields(p, PLATEAU, t)
            _, _, lp, lm = bright_states(p, PLATEAU, t)
            assert lp + lm == pytest.approx(f.big_delta, abs=1e-10)
            assert lp * lm == pytest.approx(-f.coupling_sq, abs=1e-10)


class TestNumericalOracle:
    def test_diagonal(self):
        vals, _ = numerical_eigensystem(np.diag([0.0, 0.0, 0.25]).astype(complex))
        np.testing.assert_allclose(vals, [0.0, 0.0, 0.25])

    def test_rejects_non_hermitian(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValidationError):
            numerical_eigensystem(m)

    def test_analytic_matches_numerical(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = random_ods_params(rng)
            t = rng.uniform(0, 300)
            es = analytic_eigensystem(p, PLATEAU, t)
            h = hamiltonian(p, PLATEAU, t)
            vals, vecs = numerical_eigensystem(h)
            analytic = sorted([0.0, es.lambda_plus, es.lambda_minus])
            np.testing.assert_allclose(vals, analytic, atol=1e-9)
            for lam, vec in ((0.0, es.a0), (es.lambda_plus, es.a_plus), (es.lambda_minus, es.a_minus)):
                col = vecs[:, np.argmin(np.abs(vals - lam))]
                aligned = phase_align(col, vec)
                np.testing.assert_allclose(aligned, vec, atol=1e-9)

    def test_offset_detuning_breaks_dark_state(self):
        # Delta' = 0.1: the analytic ground-level state is no longer null
        ods = DriveParams.ods(2.0, 2.0, delta=0.05, big_delta=0.25)
        broken = DriveParams(2.0, 2.0, 0.35, 0.25, 0.3, 0.2, require_ods=False)
        t = 20.0
        a0 = dark_state(ods, t)
        h = hamiltonian(broken, PLATEAU, t)
        assert np.linalg.norm(h @ a0) > 1e-3

    def test_eigensystem_follows_counterintuitive_upload(self, params_a):
        # during the upload theta comes from the pair envelopes; the plateau
        # dark state is no longer null there
        sched = RampSchedule.for_params(params_a, 0.1, shape="counterintuitive")
        for t in (0.5, 2.0, 5.0, 9.0):
            es = analytic_eigensystem(params_a, sched, t)
            h = hamiltonian(params_a, sched, t)
            assert np.linalg.norm(h @ es.a0) < 1e-12
            for lam, vec in ((es.lambda_plus, es.a_plus), (es.lambda_minus, es.a_minus)):
                assert np.linalg.norm(h @ vec - lam * vec) < 1e-12
            assert np.linalg.norm(h @ dark_state(params_a, t)) > 1e-2
        # after the upload the pair envelopes agree and the plateau angle holds
        t = sched.t_on + sched.tau + 1.0
        assert mixing_theta(params_a, t, sched) == mixing_theta(params_a, t)


def test_orthonormal_triple(params_a, schedule_a):
    es = analytic_eigensystem(params_a, schedule_a, 37.0)
    basis = np.column_stack([es.a0, es.a_plus, es.a_minus])
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(3), atol=1e-12)
