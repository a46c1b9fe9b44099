"""Rough Euler solver, viscous reference, and weak-formulation diagnostics."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughflow.errors import GridError, HypothesisError, QuadratureError, StepSizeError
from roughflow.euler import (
    EulerState,
    EulerTrajectory,
    FourierTestFunctions,
    _fit_slope,
    _particle_pairings,
    load_run,
    save_run,
    solve_rough_euler,
    solve_viscous_reference,
    weak_remainder,
)
from roughflow.fields import (
    ConstantField,
    GradPerpField,
    ShearField,
    SumField,
    biot_savart,
    nodes_1d,
    vorticity_from_modes,
)
from roughflow.flow import ParticleFlow
from roughflow.roughpath import (
    DriverPair,
    lift_piecewise_linear,
    sample_fbm,
    variation_control,
)
from roughflow.variation import Control

from reference import (
    euler_grids_by_redeposit,
    grid_l1,
    particle_pairings_by_points,
    solution_variation,
    translated_mode_pairing_defect,
    trapezoid_pair_integral,
)

TWO_PI = 2.0 * math.pi


def area_l1(a, b=0.0):
    """Area-averaged L1 distance on the torus grid."""
    return float(np.abs(np.asarray(a, dtype=float) - b).mean())


def zero_driver(dims=1):
    rp = lift_piecewise_linear(np.linspace(0.0, 1.0, 3), np.zeros((3, dims)), 2.5)
    return DriverPair(tuple(ConstantField((0.0, 0.0)) for _ in range(dims)), rp,
                      sign_convention=-1)


def scalar_brownian_driver(sigma_field, n_seg=64, seed=3, scale=1.0, p=2.5):
    values = sample_fbm(0.5, n_seg, 1.0, dims=1, seed=seed) * scale
    rp = lift_piecewise_linear(np.linspace(0.0, 1.0, n_seg + 1), values, p_exponent=p)
    return DriverPair((sigma_field,), rp, sign_convention=-1)


def shear_mode(resolution, amplitude=1.0):
    """w0 = amplitude * cos x1 — a steady Euler state (velocity is a shear)."""
    return vorticity_from_modes([(1, 0, amplitude)], resolution)


# ---------------------------------------------------------------------------
# test-function family
# ---------------------------------------------------------------------------


class TestFourierFamily:
    def test_point_values_match_grid_arrays(self):
        fam = FourierTestFunctions(32)
        x = nodes_1d(32)
        X, Y = np.meshgrid(x, x, indexing="ij")
        lattice = np.stack([X.ravel(), Y.ravel()], axis=1)
        assert np.array_equal(fam.at_points(lattice).reshape(fam.size, 32, 32),
                              fam.values)
        # analytic gradients on the grid: ∇cos(k·x) = −k sin(k·x) and
        # ∇sin(k·x) = k cos(k·x), members laid out all cosines, then all sines
        K = fam.size // 2
        k = fam.wavevectors[:K, :, None, None]
        cos, sin = fam.values[:K], fam.values[K:]
        grid_gradients = np.concatenate([-k * sin[:, None], k * cos[:, None]])
        assert np.array_equal(
            fam.gradients_at(lattice).reshape(fam.size, 2, 32, 32),
            grid_gradients)

    def test_gradients_and_hessians_match_finite_differences(self):
        fam = FourierTestFunctions(32)
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.0, TWO_PI, size=(9, 2))
        g = fam.gradients_at(pts)
        h = fam.hessians_at(pts)
        eps = 1e-6
        for axis in range(2):
            bump = np.zeros(2)
            bump[axis] = eps
            fd_g = (fam.at_points(pts + bump) - fam.at_points(pts - bump)) / (2 * eps)
            assert np.abs(fd_g - g[:, axis, :]).max() < 1e-7
            fd_h = (fam.gradients_at(pts + bump) - fam.gradients_at(pts - bump)) / (2 * eps)
            assert np.abs(fd_h - h[:, :, axis, :]).max() < 1e-6

    def test_dual_norm_constants_match_quadrature(self):
        # ∫|∂^α ψ| for a pure mode is (2π)² (2/π) |k^α|; the stored W^{3,1}
        # normalizer is the |α| ≤ 3 sum of those.  Check it against direct
        # grid quadrature of the analytic derivatives (|cos| has kinks, so
        # the lattice rule is only ~h² accurate — hence the loose tolerance).
        fam = FourierTestFunctions(256)
        x = nodes_1d(256)
        X, Y = np.meshgrid(x, x, indexing="ij")
        for f, (k1, k2) in [(0, fam.wavevectors[0]), (7, fam.wavevectors[7])]:
            total = 0.0
            for a in range(4):
                for b in range(4 - a):
                    amp = abs(k1) ** a * abs(k2) ** b
                    phase = np.cos if (a + b) % 2 == 0 else np.sin
                    total += grid_l1(amp * phase(k1 * X + k2 * Y))
            assert total == pytest.approx(fam.w31_norms[f], rel=2e-3)
        assert fam.w1_norms[fam.labels.index("cos(1,0)")] == 1.0
        assert fam.w1_norms[fam.labels.index("sin(8,0)")] == 8.0
        assert fam.w1_norms[fam.labels.index("cos(2,1)")] == 2.0

    def test_pair_particles_matches_grid_pairing_on_lattice(self):
        w = vorticity_from_modes([(1, 0, 0.7), (2, 1, 0.4)], 32)
        fam = FourierTestFunctions(32)
        flow = ParticleFlow.lattice(64, w)
        particle = fam.pair_particles(flow.positions, flow.weights)
        grid = fam.pair(w)
        assert np.abs(particle - grid).max() < 1e-12

    def test_second_transport_product_rule(self):
        # (σ_i·∇)(σ_j·∇ψ) must equal a directional finite difference of the
        # first transport along σ_i — this exercises the ∇σ product-rule term.
        fam = FourierTestFunctions(32)
        sigmas = (ShearField(0.8, 2, 0), GradPerpField(0.5, (1, 1)))
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, TWO_PI, size=(11, 2))
        second = fam.second_transport_at(sigmas, pts)
        eps = 1e-5
        for i, sig in enumerate(sigmas):
            direction = sig(pts)
            up = fam.transport_at(sigmas, pts + eps * direction)
            dn = fam.transport_at(sigmas, pts - eps * direction)
            fd = (up - dn) / (2 * eps)
            assert np.abs(fd - second[i]).max() < 1e-6

    def test_family_rejects_aliased_modes(self):
        with pytest.raises(GridError):
            FourierTestFunctions(16)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_pair_particles_linear_in_weights(self, seed):
        rng = np.random.default_rng(seed)
        fam = FourierTestFunctions(32)
        pts = rng.uniform(0.0, TWO_PI, size=(40, 2))
        w1 = rng.normal(size=40)
        w2 = rng.normal(size=40)
        a, b = rng.normal(size=2)
        combined = fam.pair_particles(pts, a * w1 + b * w2)
        split = a * fam.pair_particles(pts, w1) + b * fam.pair_particles(pts, w2)
        assert np.abs(combined - split).max() < 1e-9 * (1 + np.abs(split).max())


def random_field(kind, rng):
    """A catalog field with random parameters: constant, shear, grad-perp or sum."""
    if kind == 0:
        return ConstantField(rng.uniform(-1.0, 1.0, 2))
    if kind == 1:
        return ShearField(rng.uniform(-1.0, 1.0), int(rng.integers(1, 4)),
                          int(rng.integers(0, 2)), rng.uniform(0.0, TWO_PI))
    if kind == 2:
        return GradPerpField(rng.uniform(-1.0, 1.0),
                             (int(rng.integers(1, 4)), int(rng.integers(-3, 4))),
                             rng.uniform(0.0, TWO_PI))
    return SumField(random_field(1, rng), random_field(2, rng))


class TestParticlePairings:
    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.integers(0, 3), min_size=1, max_size=3),
           st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_contraction_matches_pointwise_reference(self, seed, kinds, n):
        rng = np.random.default_rng(seed)
        fam = FourierTestFunctions(32)
        sigmas = tuple(random_field(kind, rng) for kind in kinds)
        pts = rng.uniform(-1.0, 7.0, (n, 2))
        w = rng.normal(size=n)
        u = rng.normal(size=(n, 2))
        fast = _particle_pairings(fam, sigmas, pts, w, u)
        slow = particle_pairings_by_points(fam, sigmas, pts, w, u)
        for got, want in zip(fast, slow):
            assert got.shape == want.shape
            scale = max(float(np.abs(want).max()), 1e-300)
            assert np.abs(got - want).max() <= 1e-12 * scale

    def test_weak_remainder_evaluates_no_pointwise_table(self, monkeypatch):
        driver = scalar_brownian_driver(ShearField(0.5, 1, 0), n_seg=8, seed=9,
                                        scale=0.5)
        run = solve_rough_euler(shear_mode(32), driver, np.linspace(0.0, 1.0, 9),
                                store_times="steps")
        calls = []
        for name in ("at_points", "gradients_at", "hessians_at", "pair_particles",
                     "flux_pair_particles", "transport_at", "second_transport_at"):
            original = getattr(FourierTestFunctions, name)

            def counted(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(FourierTestFunctions, name, counted)
        result = weak_remainder(run)
        assert calls == []
        assert result.pairings.shape == (result.times.size,
                                          result.test_functions.size)


# ---------------------------------------------------------------------------
# Lagrangian solver
# ---------------------------------------------------------------------------


class TestRoughEulerSolver:
    def test_zero_sigma_shear_is_steady(self):
        # u·∇w = 0 for a single cosine column, so the deposited field must
        # not drift; distance to the analytic initial field stays at the
        # one-off deposition bias (measured 4.8e-4 at N=64, N_p=256²).
        w0 = shear_mode(64)
        run = solve_rough_euler(w0, zero_driver(), np.linspace(0.0, 1.0, 17),
                                particles_per_side=256, store_times="steps")
        x = nodes_1d(64)
        exact = np.cos(x)[:, None] * np.ones(64)[None, :]
        drift_vs_exact = max(area_l1(s.vorticity.values, exact) for s in run.states)
        drift_vs_start = max(
            area_l1(s.vorticity.values, run.states[0].vorticity.values)
            for s in run.states)
        assert drift_vs_exact <= 1e-3
        assert drift_vs_start <= 1e-12

    def test_constant_sigma_translation_first_order_or_better(self):
        c = 0.8
        driver = scalar_brownian_driver(ConstantField((c, 0.0)), n_seg=32,
                                        seed=7, scale=0.5)
        z_final = driver.rough_path.values[-1, 0]
        errors = []
        for resolution in (16, 32, 64):
            w0 = shear_mode(resolution)
            steps = np.linspace(0.0, 1.0, 2 * resolution + 1)
            run = solve_rough_euler(w0, driver, steps)
            x = nodes_1d(resolution)
            exact = np.cos(x + c * z_final)[:, None] * np.ones(resolution)[None, :]
            errors.append(area_l1(run.final.vorticity.values, exact))
        assert errors[0] > errors[1] > errors[2]
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.0

    def test_sup_norm_exact_on_particles(self):
        driver = scalar_brownian_driver(ShearField(0.6, 1, 0), seed=5)
        w0 = vorticity_from_modes([(1, 0, 0.9), (1, 1, 0.4)], 32)
        run = solve_rough_euler(w0, driver, np.linspace(0.0, 1.0, 65),
                                store_times="steps")
        first = np.sort(run.states[0].particles.weights)
        for state in run.states:
            weights = state.particles.weights
            # transport never alters weights: the whole empirical
            # distribution — not only the sup — is conserved bitwise
            assert np.array_equal(np.sort(weights), first)
            assert np.abs(weights).max() <= run.initial_sup
        assert run.conservation_drift <= 1e-8
        assert run.sup_excess <= 0.25

    def test_mean_is_transported_not_subtracted(self):
        from roughflow.fields import VorticityGrid
        w0 = VorticityGrid(vorticity_from_modes([(1, 0, 1.0)], 32).values + 0.37)
        run = solve_rough_euler(w0, zero_driver(), np.linspace(0.0, 1.0, 9))
        assert run.initial_mean == pytest.approx(0.37, abs=1e-12)
        assert run.final.vorticity.mean == pytest.approx(0.37, abs=1e-8)

    def test_rejects_forward_sign_convention(self):
        rp = lift_piecewise_linear(np.linspace(0.0, 1.0, 3), np.zeros((3, 1)), 2.5)
        forward = DriverPair((ConstantField((0.0, 0.0)),), rp, sign_convention=1)
        with pytest.raises(HypothesisError):
            solve_rough_euler(shear_mode(16), forward, np.linspace(0.0, 1.0, 5))

    def test_store_times_subset(self):
        run = solve_rough_euler(shear_mode(16), zero_driver(),
                                np.linspace(0.0, 1.0, 9), store_times=[0.0, 0.5, 1.0])
        assert [s.time for s in run.states] == [0.0, 0.5, 1.0]
        assert len(run) == 3
        assert run.final is run.states[-1]

    @pytest.mark.parametrize("store_times, solves", [
        ("steps", 9), (None, 9), ([0.0, 0.5, 1.0], 9), ([0.0, 0.5], 8)])
    def test_march_grids_are_not_solved_again(self, monkeypatch, store_times,
                                              solves):
        # 8 steps: one deposit and one Biot-Savart solve per step, plus the
        # last node's only when it is stored
        import roughflow.euler
        import roughflow.flow
        calls = {"deposit": 0, "biot_savart": 0}
        for module in (roughflow.flow, roughflow.euler):
            for name in calls:
                if hasattr(module, name):
                    def counted(*args, _fn=getattr(module, name), _name=name):
                        calls[_name] += 1
                        return _fn(*args)
                    monkeypatch.setattr(module, name, counted)
        driver = scalar_brownian_driver(ShearField(0.4, 1, 0), n_seg=8, seed=4,
                                        scale=0.4)
        run = solve_rough_euler(shear_mode(16), driver, np.linspace(0.0, 1.0, 9),
                                store_times=store_times)
        assert calls == {"deposit": solves, "biot_savart": solves}
        assert len(run) == (9 if store_times == "steps" else
                            2 if store_times is None else len(store_times))

    @pytest.mark.parametrize("particles_per_side", [None, 48])
    def test_states_equal_a_fresh_deposit_and_solve(self, particles_per_side):
        driver = scalar_brownian_driver(ShearField(0.4, 1, 0), n_seg=8, seed=4,
                                        scale=0.4)
        w0 = vorticity_from_modes([(1, 0, 1.0), (2, 1, 0.5)], 32)
        run = solve_rough_euler(w0, driver, np.linspace(0.0, 1.0, 17),
                                particles_per_side=particles_per_side,
                                store_times="steps")
        again = euler_grids_by_redeposit([s.particles for s in run], 32)
        for state, (w, u) in zip(run, again, strict=True):
            assert np.array_equal(state.vorticity.values, w.values)
            assert np.array_equal(state.velocity, u)


# ---------------------------------------------------------------------------
# viscous reference solver
# ---------------------------------------------------------------------------


class TestViscousReference:
    def test_single_mode_heat_decay_exact(self):
        # a lone mode is a steady Euler state; with diffusion it decays by
        # exactly exp(-ν|k|²t) (the integrating factor is exact).
        nu, t_final = 1e-2, 1.0
        w0 = vorticity_from_modes([(1, 0, 1.0)], 32)
        traj = solve_viscous_reference(w0, (ConstantField((0.0, 0.0)),),
                                       zero_driver().rough_path, nu, dt=1.0 / 64)
        x = nodes_1d(32)
        exact = math.exp(-nu * t_final) * np.cos(x)[:, None] * np.ones(32)[None, :]
        assert np.abs(traj.final.values - exact).max() < 1e-12

    def test_translated_decaying_mode_second_order(self):
        c, nu = 0.9, 0.05
        path = lift_piecewise_linear(np.linspace(0.0, 1.0, 9),
                                     np.linspace(0.0, 0.8, 9)[:, None], 2.5)
        w0 = vorticity_from_modes([(1, 0, 1.0)], 32)
        x = nodes_1d(32)
        exact = math.exp(-nu) * np.cos(x + c * 0.8)[:, None] * np.ones(32)[None, :]
        errors = []
        for n_sub in (256, 512):
            traj = solve_viscous_reference(w0, (ConstantField((c, 0.0)),), path,
                                           nu, dt=1.0 / n_sub)
            errors.append(np.abs(traj.final.values - exact).max())
        assert errors[1] < 5e-6
        assert errors[0] / errors[1] >= 3.0   # measured 4.00: clean order 2

    def test_mean_mode_carried_exactly(self):
        from roughflow.fields import VorticityGrid
        w0 = VorticityGrid(vorticity_from_modes([(2, 1, 0.8)], 32).values + 0.25)
        traj = solve_viscous_reference(w0, (ConstantField((0.0, 0.0)),),
                                       zero_driver().rough_path, 1e-3, dt=1.0 / 32)
        assert traj.final.mean == pytest.approx(0.25, abs=1e-13)

    def test_rejects_nonpositive_viscosity(self):
        w0 = shear_mode(16)
        with pytest.raises(HypothesisError):
            solve_viscous_reference(w0, (ConstantField((0.0, 0.0)),),
                                    zero_driver().rough_path, 0.0, dt=0.1)

    def test_cfl_guard(self):
        w0 = vorticity_from_modes([(1, 0, 30.0)], 16)   # |u| ~ 30 ≫ grid/dt
        with pytest.raises(StepSizeError):
            solve_viscous_reference(w0, (ConstantField((0.0, 0.0)),),
                                    zero_driver().rough_path, 1e-3, dt=0.5)

    def test_max_principle_guard(self):
        # an under-resolved mode pushed by a strong shear develops a
        # dispersive overshoot that a tight allowance must catch
        w0 = vorticity_from_modes([(5, 0, 1.0), (0, 1, 0.8)], 16)
        path = lift_piecewise_linear(np.linspace(0.0, 1.0, 9),
                                     np.linspace(0.0, 0.8, 9)[:, None], 2.5)
        with pytest.raises(StepSizeError):
            solve_viscous_reference(w0, (ShearField(1.5, 1, 0),), path, 1e-6,
                                    dt=1.0 / 16, max_principle_tol=1e-4)

    def test_store_times_must_hit_step_boundaries(self):
        w0 = shear_mode(16)
        with pytest.raises(GridError):
            solve_viscous_reference(w0, (ConstantField((0.0, 0.0)),),
                                    zero_driver().rough_path, 1e-3, dt=1.0 / 8,
                                    store_times=[0.3])

    def test_store_times_must_increase(self):
        # the one store-time rule of the particle solvers applies here too
        with pytest.raises(GridError, match="increasing"):
            solve_viscous_reference(shear_mode(16), (ConstantField((0.0, 0.0)),),
                                    zero_driver().rough_path, 1e-3, dt=1.0 / 8,
                                    store_times=[0.5, 0.0])

    def test_cfl_guard_names_the_step(self):
        w0 = vorticity_from_modes([(1, 0, 30.0)], 16)
        with pytest.raises(StepSizeError) as info:
            solve_viscous_reference(w0, (ConstantField((0.0, 0.0)),),
                                    zero_driver().rough_path, 1e-3, dt=0.5)
        assert info.value.step == 0
        assert info.value.interval == (0.0, 0.5)
        assert info.value.value > 1.0


# ---------------------------------------------------------------------------
# weak-formulation remainder
# ---------------------------------------------------------------------------


def translated_trajectory(c, driver, step_times, resolution=32, lattice_side=64):
    """Exact pushforward trajectory for w0 = cos x1 under constant σ=(c,0)."""
    z = np.interp(step_times, driver.rough_path.times, driver.rough_path.values[:, 0])
    w0 = shear_mode(resolution)
    init = ParticleFlow.lattice(lattice_side, w0)
    states = []
    for t, z_t in zip(step_times, z):
        positions = np.mod(init.positions + np.array([-c * z_t, 0.0]), TWO_PI)
        w = vorticity_from_modes([(1, 0, 1.0, c * z_t)], resolution)
        states.append(EulerState(time=float(t),
                                 particles=init.with_positions(positions, time=float(t)),
                                 vorticity=w, velocity=biot_savart(w)))
    return EulerTrajectory(states, driver, np.asarray(step_times, dtype=float),
                           1.0, 0.0, 0.0, 0.0), z


class TestWeakRemainder:
    def test_matches_closed_form_on_exact_trajectory(self):
        driver = scalar_brownian_driver(ConstantField((0.7, 0.0)), n_seg=32,
                                        seed=0, scale=0.6)
        steps = np.linspace(0.0, 1.0, 65)
        traj, z = translated_trajectory(0.7, driver, steps)
        result = weak_remainder(traj)
        column = result.test_functions.labels.index("cos(1,0)")
        for i, j in [(0, 64), (0, 32), (17, 50), (3, 5), (60, 64)]:
            expected = translated_mode_pairing_defect(0.7, z[i], z[j])
            assert result.remainder_values[i, j, column] == pytest.approx(
                expected, abs=1e-10)

    def test_matches_closed_form_on_solver_run(self):
        c = 0.7
        driver = scalar_brownian_driver(ConstantField((c, 0.0)), n_seg=32,
                                        seed=0, scale=0.6)
        steps = np.linspace(0.0, 1.0, 65)
        run = solve_rough_euler(shear_mode(32), driver, steps, store_times="steps")
        result = weak_remainder(run)
        column = result.test_functions.labels.index("cos(1,0)")
        z = np.interp(steps, driver.rough_path.times, driver.rough_path.values[:, 0])
        expected = translated_mode_pairing_defect(c, z[0], z[-1])
        assert result.remainder_values[0, 64, column] == pytest.approx(
            expected, abs=1e-10)

    def test_third_order_in_driver_increment(self):
        # |remainder| is a third-order Taylor defect: ≤ 2π² (c|δZ|)³ / 6
        c = 0.7
        driver = scalar_brownian_driver(ConstantField((c, 0.0)), n_seg=32,
                                        seed=0, scale=0.6)
        steps = np.linspace(0.0, 1.0, 65)
        traj, z = translated_trajectory(c, driver, steps)
        result = weak_remainder(traj)
        column = result.test_functions.labels.index("cos(1,0)")
        values = result.remainder_values[:, :, column]
        dz = np.abs(z[None, :] - z[:, None])
        bound = 2.0 * np.pi ** 2 * (c * dz) ** 3 / 6.0
        upper = np.triu_indices(len(steps), k=1)
        assert np.all(np.abs(values[upper]) <= bound[upper] * 1.02 + 1e-13)

    def test_cocycle_additivity_machine_precision(self):
        driver = scalar_brownian_driver(ShearField(0.5, 1, 0), n_seg=32, seed=9,
                                        scale=0.5)
        run = solve_rough_euler(shear_mode(32), driver,
                                np.linspace(0.0, 1.0, 33), store_times="steps")
        result = weak_remainder(run)
        assert result.additivity_defect <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_coarse_steps_keep_the_cocycle_exact(self, seed):
        # four driver segments per step: the march steps with their
        # Chen-composed (Z, 𝕫), as on the restricted lift (measured 4.4e-15
        # and 5.3e-15 apart), and the ledger reads the same increments
        # (defect 3.4e-15 and 5.3e-15)
        times = np.linspace(0.0, 1.0, 257)
        rp = lift_piecewise_linear(times, sample_fbm(0.5, 256, 1.0, dims=2, seed=seed),
                                   2.1)
        coarse = times[::4]
        w0 = vorticity_from_modes([(1, 0, 1.0), (2, 1, 0.5, 0.3), (0, 1, 0.5)], 32)
        sigmas = (ShearField(0.5, 1, 0), ShearField(0.5, 1, 1))
        run, restricted = (solve_rough_euler(w0, DriverPair(sigmas, path, sign_convention=-1),
                                             coarse, store_times="steps")
                           for path in (rp, rp.restrict(coarse)))
        gap = run[-1].particles.positions - restricted[-1].particles.positions
        assert np.abs((gap + math.pi) % TWO_PI - math.pi).max() <= 1e-12
        assert weak_remainder(run).additivity_defect <= 1e-10

    def test_tables_zero_on_and_below_diagonal_except_mu(self):
        driver = scalar_brownian_driver(ShearField(0.5, 1, 0), n_seg=32, seed=9,
                                        scale=0.5)
        run = solve_rough_euler(shear_mode(32), driver,
                                np.linspace(0.0, 1.0, 33), store_times="steps")
        result = weak_remainder(run)
        lower = np.tril_indices(result.times.size)
        for table in (result.driver_terms, result.remainder_values,
                      result.remainder_norms, result.bound_values):
            assert not table[lower].any()
        assert result.driver_terms[np.triu_indices(result.times.size, 1)].any()
        assert np.array_equal(result.mu_values,
                              -result.mu_values.transpose(1, 0, 2))

    def test_zero_sigma_remainder_vanishes(self):
        run = solve_rough_euler(shear_mode(32), zero_driver(),
                                np.linspace(0.0, 1.0, 17), store_times="steps")
        result = weak_remainder(run)
        assert np.abs(result.remainder_values).max() <= 1e-12
        assert result.variation_norm <= 1e-12

    def test_variation_stable_under_step_halving(self):
        # the localized p/3-variation is an intrinsic quantity: halving the
        # step size (midpoint insertion, same driver, same absolute
        # localization threshold) must not move it by more than ±20%
        sigma = ConstantField((0.6, 0.0))
        driver = scalar_brownian_driver(sigma, n_seg=64, seed=3)
        nodes = driver.rough_path.times
        control = (variation_control(driver.rough_path, nodes)
                   + Control.interval_power(nodes, 2.5))
        threshold = 4.0 * max(control(nodes[i], nodes[i + 1])
                              for i in range(len(nodes) - 1))
        w0 = shear_mode(32)
        base = solve_rough_euler(w0, driver, nodes, store_times="steps")
        value = weak_remainder(base, threshold=threshold).variation_norm
        halved_grid = np.sort(np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:])]))
        halved = solve_rough_euler(w0, driver, halved_grid, store_times="steps")
        value_halved = weak_remainder(halved, threshold=threshold).variation_norm
        assert value > 0.0
        assert 0.8 <= value_halved / value <= 1.2   # measured 1.10

    def test_scaling_slope_near_three_over_p(self):
        # against the a-priori right side the log-log slope is 3/p on
        # Brownian-scale constant-σ runs (measured 0.97-1.31 over seeds)
        for seed in (3, 5, 11):
            driver = scalar_brownian_driver(ConstantField((0.6, 0.0)),
                                            n_seg=64, seed=seed)
            run = solve_rough_euler(shear_mode(32), driver,
                                    driver.rough_path.times, store_times="steps")
            slope = weak_remainder(run).scaling_slope
            assert 0.9 <= slope <= 1.5

    def test_mu_uses_trapezoid_on_snapshots(self):
        # cross-check the drift integral against the plain antiderivative
        # table built by the reference rule on the same snapshots
        driver = scalar_brownian_driver(ShearField(0.5, 1, 0), n_seg=16, seed=2,
                                        scale=0.4)
        run = solve_rough_euler(vorticity_from_modes([(1, 0, 0.8), (0, 1, 0.5)], 32),
                                driver, np.linspace(0.0, 1.0, 17),
                                store_times="steps")
        result = weak_remainder(run)
        fam = result.test_functions
        from roughflow.fields import interpolate_velocity
        flux = []
        for state in run.states:
            u_at = interpolate_velocity(state.velocity, state.particles.positions)
            flux.append(fam.flux_pair_particles(state.particles.positions,
                                                state.particles.weights, u_at))
        table = trapezoid_pair_integral(result.times, np.asarray(flux))
        expected = table[None, :, :] - table[:, None, :]
        assert np.abs(result.mu_values - expected).max() < 1e-12

    def test_quadrature_error_guard(self):
        # alternating velocity snapshots make the trapezoid rule disagree
        # with its half-grid restriction — the Richardson check must fire
        w0 = shear_mode(32)
        u_hi = biot_savart(vorticity_from_modes([(3, 2, 1.0)], 32))
        init = ParticleFlow.lattice(64, w0)
        times = np.linspace(0.0, 1.0, 5)
        driver = zero_driver()
        states = [EulerState(time=float(t),
                             particles=init.with_positions(init.positions, time=float(t)),
                             vorticity=w0,
                             velocity=(u_hi if k % 2 == 0 else -u_hi))
                  for k, t in enumerate(times)]
        traj = EulerTrajectory(states, driver, times, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(QuadratureError):
            weak_remainder(traj)

    def test_needs_three_snapshots(self):
        run = solve_rough_euler(shear_mode(16), zero_driver(),
                                np.linspace(0.0, 1.0, 5), store_times=[0.0, 1.0])
        with pytest.raises(GridError):
            weak_remainder(run)


@given(st.floats(-1.0, 1.0), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
@settings(max_examples=200, deadline=None)
def test_pairing_defect_oracle_is_third_order(c, z_s, z_t):
    value = translated_mode_pairing_defect(c, z_s, z_t)
    bound = 2.0 * np.pi ** 2 * abs(c * (z_t - z_s)) ** 3 / 6.0
    assert abs(value) <= bound * (1 + 1e-9) + 1e-12


# ---------------------------------------------------------------------------
# solution-variation diagnostic
# ---------------------------------------------------------------------------


def test_fit_slope_is_nan_without_a_warning_on_nonpositive_entries():
    # a zero would warn inside np.log; warnings are errors under pytest here
    assert math.isnan(_fit_slope([0.5, 0.25, 0.125], [1e-3, 0.0, 1e-4]))
    assert math.isnan(_fit_slope([0.5, -0.25], [1e-3, 1e-4]))
    assert math.isnan(_fit_slope([0.5], [1e-3]))
    assert _fit_slope([1.0, 2.0, 4.0], [3.0, 12.0, 48.0]) == pytest.approx(2.0)


class TestSolutionVariation:
    def test_steady_run_has_vanishing_variation(self):
        run = solve_rough_euler(shear_mode(32), zero_driver(),
                                np.linspace(0.0, 1.0, 17), store_times="steps")
        diag = solution_variation(run, weak_remainder(run))
        assert diag.variation_norm <= 1e-12

    def test_constant_sigma_run_dominated_by_bound(self):
        driver = scalar_brownian_driver(ConstantField((0.6, 0.0)), n_seg=64, seed=3)
        run = solve_rough_euler(shear_mode(32), driver, driver.rough_path.times,
                                store_times="steps")
        diag = solution_variation(run, weak_remainder(run))
        assert np.isfinite(diag.variation_norm) and diag.variation_norm > 0.0
        assert np.isfinite(diag.constant) and diag.constant > 0.0
        # measured constant stays O(10); a runaway value signals a broken bound
        assert diag.constant < 1e3


# ---------------------------------------------------------------------------
# run archives
# ---------------------------------------------------------------------------


class TestRunArchive:
    def _run(self):
        driver = scalar_brownian_driver(ShearField(0.4, 1, 0), n_seg=8, seed=4,
                                        scale=0.4)
        return solve_rough_euler(shear_mode(16), driver, np.linspace(0.0, 1.0, 9),
                                 store_times=[0.0, 0.5, 1.0])

    @pytest.mark.parametrize("binary", [False, True])
    def test_round_trip(self, tmp_path, binary):
        run = self._run()
        root = save_run(run, tmp_path, name="case", binary=binary,
                        config={"note": "round-trip"})
        archive = load_run(root)
        assert archive.meta["name"] == "case"
        assert archive.meta["config"] == {"note": "round-trip"}
        assert len(archive.fields) == len(run.states) == 3
        for state, grid, particles in zip(run.states, archive.fields,
                                          archive.particles):
            assert np.array_equal(grid.values, state.vorticity.values)
            assert np.array_equal(particles.positions, state.particles.positions)
            assert np.array_equal(particles.weights, state.particles.weights)
        assert archive.diagnostics["conservation_drift"] == run.conservation_drift

    def test_load_rejects_non_archive(self, tmp_path):
        with pytest.raises(GridError):
            load_run(tmp_path)
