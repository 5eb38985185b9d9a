import math

import numpy as np
import pytest

from ods import (
    DecoherenceRates,
    DriveParams,
    IntegratorConfig,
    RampSchedule,
    TargetState,
    ValidationError,
    basis_state,
    dark_state,
    evolve,
    fidelity_scan,
    plan_superposition,
    plan_transfer,
    plan_transfer_protocol,
    pure_density,
    run_protocol,
    with_delta_phi,
)
from ods.planner import predicted_state


class TestTargetState:
    def test_amplitudes(self):
        t = TargetState(math.pi / 4, 0.0)
        np.testing.assert_allclose(t.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2), 0])

    def test_alpha_range(self):
        with pytest.raises(ValidationError):
            TargetState(-0.1)
        with pytest.raises(ValidationError):
            TargetState(math.pi / 2 + 0.1)


class TestPlanTransfer:
    def test_first_retrieval(self, params_a):
        points = plan_transfer(params_a, n_max=1)
        assert points[0].time == pytest.approx(params_a.period / 4)
        assert points[1].time == pytest.approx(0.75 * params_a.period)

    def test_every_point_lands_on_level_2(self, params_a):
        # theta = pi/2 + n pi at every (1/4 + n/2) T: |2> population is 1 for all n
        for point in plan_transfer(params_a, n_max=6):
            a0 = dark_state(params_a, point.time)
            assert abs(a0[1]) == pytest.approx(1.0, abs=1e-12)

    def test_requires_oscillation(self):
        p = DriveParams(2, 2, 0.3, 0.3, 0.3, 0.3, require_ods=False)
        with pytest.raises(ValidationError):
            plan_transfer(p)

    def test_requires_equal_rabi(self):
        p = DriveParams.ods(2.0, 1.0, delta=0.05)
        with pytest.raises(ValidationError):
            plan_transfer(p)


class TestPlanSuperposition:
    def test_target_ground(self, params_a):
        plan = plan_superposition(TargetState(0.0), params_a)
        assert plan.t0 == 0.0
        assert plan.delta_phi == 0.0

    def test_target_level2_matches_transfer(self, params_a):
        plan = plan_superposition(TargetState(math.pi / 2), params_a)
        assert plan.t0 == pytest.approx(params_a.period / 4)
        assert plan.t0 == pytest.approx(plan_transfer(params_a)[0].time)

    def test_equal_superposition(self, params_a):
        plan = plan_superposition(TargetState(math.pi / 4, 0.0), params_a)
        assert plan.delta_phi == pytest.approx(3 * math.pi / 2)
        assert plan.t0 == pytest.approx(params_a.period / 8)

    def test_closed_form_inversion_200_targets(self, params_a):
        rng = np.random.default_rng(10)
        for _ in range(200):
            target = TargetState(rng.uniform(0, math.pi / 2), rng.uniform(-math.pi, math.pi))
            plan = plan_superposition(target, params_a)
            a0 = predicted_state(plan, params_a)
            assert abs(np.vdot(target.amplitudes, a0)) == pytest.approx(1.0, abs=1e-12)

    def test_t0_in_period(self, params_a):
        rng = np.random.default_rng(13)
        for _ in range(50):
            plan = plan_superposition(TargetState(rng.uniform(0, math.pi / 2)), params_a)
            assert 0.0 <= plan.t0 < params_a.period


class TestRunProtocol:
    def test_closed_system_transfer(self, params_a, rho_ground):
        plan = plan_transfer_protocol(params_a)
        result = run_protocol(plan, rho_ground, params_a, DecoherenceRates.none())
        assert result.rho[1, 1].real >= 0.99

    def test_open_system_transfer(self, params_a, reference_rates, rho_ground):
        plan = plan_transfer_protocol(params_a)
        result = run_protocol(plan, rho_ground, params_a, reference_rates)
        assert result.rho[1, 1].real >= 0.95
        assert result.fidelity >= 0.95

    def test_superposition_preparation(self, params_a, reference_rates, rho_ground):
        plan = plan_superposition(TargetState(math.pi / 4, 0.0), params_a)
        result = run_protocol(plan, rho_ground, params_a, reference_rates)
        assert result.fidelity >= 0.95

    def test_initial_state_level2_with_matched_clock(self, reference_rates):
        # start on |2> with the drive clock offset so theta(0) = pi/2:
        # same periodic oscillation, now |2> -> |1> at the first transfer time
        params = DriveParams.fig2("a")
        rho0 = pure_density(basis_state(2))
        from dataclasses import replace

        from ods import RampSchedule, evolve

        shifted = DriveParams(
            2.0, 2.0,
            delta1=0.3, delta2=0.2, delta3=0.3, delta4=0.2,
        )
        # emulate the clock offset by evolving from t = T/4 where |a0> = |2>
        t0 = params.period / 4
        sched = RampSchedule(tau=0.01 * params.period, t_on=t0)
        traj = evolve(rho0, shifted, sched, reference_rates, (t0, t0 + params.period))
        obs = traj.observables()
        # oscillates with full amplitude, mirroring the |1>-start run
        assert obs["rho11"].max() > 0.9
        assert obs["rho22"].max() > 0.9
        assert obs["dark_overlap"].min() > 0.9

    def test_periodicity_of_retrievals(self, params_a, reference_rates, rho_ground):
        plan = plan_superposition(TargetState(1.0, 0.5), params_a)
        fids = []
        for n in (1, 2, 5):
            t_r = plan.t0 + n * params_a.period
            result = run_protocol(plan, rho_ground, params_a, reference_rates,
                                  retrieval_time=t_r)
            fids.append(result.fidelity)
        assert max(fids) - min(fids) < 0.02


class TestFidelityScan:
    def test_initial_point_is_one(self, params_a, reference_rates):
        scan = fidelity_scan(params_a, reference_rates, n_periods=2)
        assert scan["F"][0] == 1.0
        assert scan["n"][0] == 0

    def test_closed_system_near_unity(self, params_a):
        # without decoherence only the small diabatic leakage (~delta^2) remains
        scan = fidelity_scan(params_a, DecoherenceRates.none(), n_periods=5)
        assert scan["F"].min() > 0.995
        assert scan["F"].max() <= 1.0

    def test_open_system_plateau(self, params_a, reference_rates):
        scan = fidelity_scan(params_a, reference_rates, n_periods=10)
        assert np.all(scan["F"][1:] > 0.95)
        assert abs(scan["F"][10] - scan["F"][1]) < 0.02


def direct_f2(params, rates, schedule, n_periods):
    """<1|rho(nT)|1> from one evolve over n_periods, sampled every period."""
    config = IntegratorConfig(method="dop853-adaptive", sample_interval=params.period)
    traj = evolve(pure_density(basis_state(1)), params, schedule, rates,
                  (0.0, n_periods * params.period), config=config)
    return traj.states[:, 0, 0].real


def scan_schedule(params, case):
    period = params.period
    return {
        "default": RampSchedule.for_params(params),
        "counterintuitive": RampSchedule.for_params(params, 0.1, shape="counterintuitive"),
        "t_on_half": RampSchedule.for_params(params, t_on=period / 2),
        "t_on_1.5": RampSchedule.for_params(params, t_on=1.5 * period),
        "finite_t_off": RampSchedule.for_params(params, t_off=3.3 * period),
        "upload_past_scan": RampSchedule.for_params(params, t_on=5.5 * period),
    }[case]


class TestFidelityScanPropagator:
    """The one-period propagator path against direct integration (the oracle)."""

    @pytest.mark.parametrize("case, n_periods, periodic", [
        ("default", 8, True),
        ("counterintuitive", 6, True),
        ("t_on_half", 6, True),
        ("t_on_1.5", 6, True),
        ("finite_t_off", 6, False),
        ("upload_past_scan", 6, False),
    ])
    def test_matches_direct_integration(self, params_a, reference_rates, case, n_periods,
                                        periodic):
        schedule = scan_schedule(params_a, case)
        scan = fidelity_scan(params_a, reference_rates, n_periods=n_periods, schedule=schedule)
        expected = direct_f2(params_a, reference_rates, schedule, n_periods)
        assert np.max(np.abs(scan["F2"] - expected)) <= 1e-10
        assert scan["F"][0] == 1.0
        np.testing.assert_array_equal(scan["t"], params_a.period * np.arange(n_periods + 1))
        if periodic:
            assert scan["lambda2"] < 1e-6
            assert scan["fixed_rho11"] == pytest.approx(scan["F2"][-1], abs=1e-9)
        else:
            assert math.isnan(scan["lambda2"]) and math.isnan(scan["fixed_rho11"])

    def test_closed_system_diagnostics(self, params_a):
        # a unitary one-period map: every eigenvalue has modulus 1, and nothing
        # damps the 1e-9 step-control error of either path, so they agree to 1e-8
        none = DecoherenceRates.none()
        scan = fidelity_scan(params_a, none, n_periods=3)
        assert scan["lambda2"] == pytest.approx(1.0, abs=1e-6)
        assert math.isnan(scan["fixed_rho11"])  # not unique
        expected = direct_f2(params_a, none, RampSchedule.for_params(params_a), 3)
        assert np.max(np.abs(scan["F2"] - expected)) <= 1e-8

    def test_fixed_step_integrates_directly(self, params_a, reference_rates):
        # the propagator needs an adaptive method, so rk4-fixed scans every period
        scan = fidelity_scan(params_a, reference_rates,
                             IntegratorConfig(method="rk4-fixed", step=0.5), n_periods=3)
        assert math.isnan(scan["lambda2"])
        expected = direct_f2(params_a, reference_rates, RampSchedule.for_params(params_a), 3)
        assert np.max(np.abs(scan["F2"] - expected)) <= 1e-4

    def test_rejects_period_count_before_integrating(self, params_a, reference_rates):
        with pytest.raises(ValidationError, match="n_periods"):
            fidelity_scan(params_a, reference_rates, n_periods=2_000_000)
        with pytest.raises(ValidationError, match="n_periods"):
            fidelity_scan(params_a, reference_rates, n_periods=0)
