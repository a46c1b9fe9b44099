"""Davie-scheme flows: analytic cases, inverse flows, measure preservation."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughflow.errors import GridError, HypothesisError, StepSizeError
from roughflow.fields import (
    _PARTICLE_BLOCK,
    ConstantField,
    GradPerpField,
    ShearField,
    SumField,
    VorticityGrid,
    biot_savart,
    interpolate,
    interpolate_velocity,
    vorticity_from_modes,
)
from roughflow.flow import (
    LAGRANGIAN_STABILITY_CONSTANT,
    CallableDrift,
    FlowProblem,
    GridDrift,
    ParticleFlow,
    SteadyDrift,
    ZeroDrift,
    _freeze,
    _log_lipschitz_ratio,
    _second_level,
    as_drift,
    davie_step,
    lagrangian_stability_bound,
    load_particles_binary,
    load_particles_csv,
    save_particles_binary,
    save_particles_csv,
    solve_flow,
    solve_inverse_flow,
    solve_nonlocal_flow,
)
from roughflow.harness import _p_from_hurst
from roughflow.roughpath import DriverPair, RoughPath, lift_piecewise_linear, sample_fbm

from reference import (flow_diagnostics, mollify, occupancy_chi_squared, rk4_flow,
                       second_level_by_einsum)

TWO_PI = 2.0 * math.pi


def brownian_values(seed, n, dims=2, scale=0.15, horizon=1.0):
    rng = np.random.default_rng(seed)
    steps = rng.normal(scale=scale * math.sqrt(horizon / n), size=(n, dims))
    return np.cumsum(np.r_[np.zeros((1, dims)), steps], axis=0)


def brownian_driver(seed, n, scale=0.15, p=2.5, horizon=1.0):
    return lift_piecewise_linear(np.linspace(0.0, horizon, n + 1),
                                 brownian_values(seed, n, 2, scale, horizon),
                                 p_exponent=p)


def zero_sigma():
    return (ConstantField([0.0, 0.0]), ConstantField([0.0, 0.0]))


def cellular_drift():
    """Two crossed shears: the standard cellular flow with curved paths."""
    return SumField(ShearField(amplitude=0.5, wavenumber=1, axis=0),
                    ShearField(amplitude=0.4, wavenumber=1, axis=1))


def shear_sigma():
    return (ShearField(amplitude=0.3, wavenumber=1, axis=0),
            ShearField(amplitude=0.2, wavenumber=2, axis=1))


def unit_shears():
    """(0, ½cos x₁) and (½cos x₂, 0): each has (σ·∇)σ = 0, but they do not
    commute, so a step's second-level term is its Lévy area's."""
    return (ShearField(0.5, 1, 0), ShearField(0.5, 1, 1))


def staircase_lift(values, p):
    """The lift on [0, 1] of the staircase through ``values`` (shape
    ``(n+1, 2)``): on each segment Z¹ moves first with Z² held, then Z²
    moves, each half a straight segment between its own nodes."""
    n = values.shape[0] - 1
    stair = np.empty((2 * n + 1, 2))
    stair[0::2] = values
    stair[1::2, 0] = values[1:, 0]
    stair[1::2, 1] = values[:-1, 1]
    return lift_piecewise_linear(np.linspace(0.0, 1.0, 2 * n + 1), stair, p)


def staircase_flow(values, positions):
    """The exact flow of :func:`unit_shears` under the staircase of
    ``values`` with sign convention −1: on each half-segment one shear acts
    alone and moves only the coordinate it does not read."""
    x = np.array(positions, dtype=float)
    for dz in np.diff(values, axis=0):
        x[:, 1] -= dz[0] * 0.5 * np.cos(x[:, 0])
        x[:, 0] -= dz[1] * 0.5 * np.cos(x[:, 1])
    return x


def torus_dist(a, b):
    return np.sqrt((((a - b + math.pi) % TWO_PI - math.pi) ** 2).sum(axis=-1))


# ---------------------------------------------------------------------------
# drift wrappers
# ---------------------------------------------------------------------------

class TestDrifts:
    def test_as_drift_dispatch(self):
        assert isinstance(as_drift(None), ZeroDrift)
        assert isinstance(as_drift(cellular_drift()), SteadyDrift)
        assert isinstance(as_drift(lambda t, x: 0.0 * x), CallableDrift)
        gd = GridDrift([0.0], [np.zeros((2, 8, 8))])
        assert as_drift(gd) is gd
        with pytest.raises(GridError):
            as_drift("northwards, briskly")

    def test_steady_drift_norms(self):
        d = SteadyDrift(ShearField(amplitude=0.5, wavenumber=2, axis=0))
        assert d.sup_norm == 0.5
        # C¹ norm is 1.0; the e·sup fallback (1.36) wins for large separations
        assert d.log_lipschitz == pytest.approx(math.e * 0.5)

    def test_callable_drift_estimates_are_padded_upper_bounds(self):
        d = CallableDrift(lambda t, x: np.stack(
            [np.sin(x[..., 1]), np.zeros_like(x[..., 0])], axis=-1))
        assert d.sup_norm >= 1.0  # true sup is 1; padding keeps it above
        assert d.log_lipschitz > 0

    def test_grid_drift_matches_band_limited_field(self):
        N = 32
        x = np.arange(N) * TWO_PI / N
        X1 = np.meshgrid(x, x, indexing="ij")[0]
        u = np.stack([np.zeros((N, N)), np.sin(X1)])
        gd = GridDrift([0.0], [u])
        pts = np.random.default_rng(2).uniform(0, TWO_PI, (50, 2))
        out = gd.velocity(0.0, pts)
        assert np.abs(out[:, 1] - np.sin(pts[:, 0])).max() < 1e-5
        assert np.abs(out[:, 0]).max() == 0.0

    def test_grid_drift_cubic_equals_interpolate_velocity_bitwise(self):
        N = 16
        rng = np.random.default_rng(4)
        u = rng.standard_normal((2, N, N))
        gd = GridDrift([0.0], [u])
        pts = rng.uniform(-1.0, 7.0, (40, 2))
        assert np.array_equal(gd.velocity(0.0, pts), interpolate_velocity(u, pts))

    def test_grid_drift_time_selection_and_range(self):
        snaps = [np.full((2, 8, 8), 1.0), np.full((2, 8, 8), 2.0)]
        gd = GridDrift([0.0, 1.0], snaps)
        pts = np.zeros((3, 2))
        assert gd.velocity(0.4, pts)[0, 0] == 1.0
        assert gd.velocity(1.0, pts)[0, 0] == 2.0
        with pytest.raises(GridError, match="out of range"):
            gd.velocity(1.5, pts)

    def test_grid_drift_single_snapshot_is_steady(self):
        gd = GridDrift([0.0], [np.full((2, 8, 8), 3.0)])
        assert gd.velocity(17.0, np.zeros((1, 2)))[0, 1] == 3.0

    def test_grid_drift_rejects_mismatched_snapshots(self):
        with pytest.raises(GridError):
            GridDrift([0.0, 1.0], [np.zeros((2, 8, 8))])
        with pytest.raises(GridError):
            GridDrift([0.0], [np.zeros((3, 8, 8))])

    def test_grid_drift_rejects_odd_grid_at_construction(self):
        # cubic drifts are upsampled, which splits the Nyquist lines of an
        # even side; an odd side fails up front, naming its shape
        with pytest.raises(GridError, match=r"\(5, 5\)"):
            GridDrift([0.0], [np.zeros((2, 5, 5))])

    def test_log_lipschitz_ratio_is_zero_without_separated_pairs(self):
        u = np.random.default_rng(1).standard_normal((4, 2))
        assert _log_lipschitz_ratio(u, -u, np.full(4, 1e-9)) == 0.0
        assert _log_lipschitz_ratio(u[:0], u[:0], np.zeros(0)) == 0.0


# ---------------------------------------------------------------------------
# particle ensembles and serialization
# ---------------------------------------------------------------------------

class TestParticles:
    def test_lattice_weights_from_grid_are_spectral_samples(self):
        N = 16
        x = np.arange(N) * TWO_PI / N
        X1 = np.meshgrid(x, x, indexing="ij")[0]
        grid = VorticityGrid(np.cos(X1))
        pf = ParticleFlow.lattice(24, grid)
        expect = np.cos(pf.positions[:, 0])
        assert np.abs(pf.weights - expect).max() < 1e-12

    @pytest.mark.parametrize("n_side, N", [(5, 8), (5, 64), (24, 64), (128, 64)])
    def test_lattice_weights_match_pointwise_spectral(self, n_side, N):
        grid = VorticityGrid(np.random.default_rng(n_side + N).standard_normal((N, N)))
        pf = ParticleFlow.lattice(n_side, grid)
        expect = interpolate(grid, pf.positions, method="spectral")
        assert np.abs(pf.weights - expect).max() <= 1e-13 * np.abs(expect).max()

    def test_weights_are_immutable(self):
        pf = ParticleFlow.lattice(4, 1.0)
        with pytest.raises(ValueError):
            pf.weights[0] = 5.0
        moved = pf.with_positions(pf.positions + 0.1, time=0.5)
        assert moved.weights is pf.weights

    def test_positions_wrap_to_fundamental_domain(self):
        pf = ParticleFlow([[0.0, 0.0]], [[3 * math.pi, -0.5]], 1.0)
        assert pf.positions[0, 0] == pytest.approx(math.pi)
        assert pf.positions[0, 1] == pytest.approx(TWO_PI - 0.5)

    def test_shape_validation(self):
        with pytest.raises(GridError):
            ParticleFlow([[0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]], 1.0)
        with pytest.raises(GridError):
            ParticleFlow([0.0, 0.0], [0.0, 0.0], 1.0)

    def test_csv_round_trip(self, tmp_path):
        pf = ParticleFlow.lattice(5, lambda x1, x2: np.cos(x1) + np.sin(x2),
                                  time=0.75)
        path = os.path.join(tmp_path, "snap.csv")
        save_particles_csv(pf, path)
        back = load_particles_csv(path)
        assert np.array_equal(back.positions, pf.positions)
        assert np.array_equal(back.weights, pf.weights)
        assert back.time == 0.75

    def test_binary_round_trip(self, tmp_path):
        pf = ParticleFlow.lattice(6, 2.5, time=1.25)
        path = os.path.join(tmp_path, "snap.bin")
        save_particles_binary(pf, path)
        back = load_particles_binary(path)
        assert np.array_equal(back.positions, pf.positions)
        assert np.array_equal(back.weights, pf.weights)
        assert back.time == 1.25

    def test_binary_rejects_foreign_and_truncated_files(self, tmp_path):
        path = os.path.join(tmp_path, "bogus.bin")
        with open(path, "wb") as fh:
            fh.write(b"PNG!" + b"\x00" * 32)
        with pytest.raises(GridError, match="not a particle snapshot"):
            load_particles_binary(path)
        pf = ParticleFlow.lattice(4, 1.0)
        good = os.path.join(tmp_path, "good.bin")
        save_particles_binary(pf, good)
        with open(good, "rb") as fh:
            blob = fh.read()
        with open(good, "wb") as fh:
            fh.write(blob[:-8])
        with pytest.raises(GridError, match="truncated"):
            load_particles_binary(good)

    def test_csv_rejects_wrong_columns(self, tmp_path):
        path = os.path.join(tmp_path, "bad.csv")
        with open(path, "w") as fh:
            fh.write("t,id,x1\n0.0,0,1.0\n")
        with pytest.raises(GridError):
            load_particles_csv(path)


# ---------------------------------------------------------------------------
# analytic exactness of the one-step scheme
# ---------------------------------------------------------------------------

class TestAnalyticCases:
    def test_no_noise_no_drift_is_identity(self):
        rp = brownian_driver(0, 8)
        init = ParticleFlow.lattice(5)
        prob = FlowProblem(None, DriverPair(zero_sigma(), rp, 1), init, rp.times)
        out = solve_flow(prob).final
        assert np.array_equal(out.positions, init.positions)

    def test_constant_sigma_is_exact_translation(self):
        rp = brownian_driver(1, 16)
        sig = (ConstantField([0.3, 0.0]), ConstantField([0.0, 0.2]))
        init = ParticleFlow.lattice(6)
        prob = FlowProblem(None, DriverPair(sig, rp, 1), init, rp.times)
        out = solve_flow(prob).final
        Z = rp.increment(rp.times[0], rp.times[-1])[0]
        expect = init.positions + np.array([0.3 * Z[0], 0.2 * Z[1]])
        assert torus_dist(out.positions, expect).max() < 1e-14

    def test_steady_shear_conserves_transverse_coordinate(self):
        drift = ShearField(amplitude=0.7, wavenumber=1, axis=0)  # u = (0, a cos x₁)
        rp = brownian_driver(2, 32)
        init = ParticleFlow.lattice(7)
        prob = FlowProblem(drift, DriverPair(zero_sigma(), rp, 1), init, rp.times)
        out = solve_flow(prob).final
        assert np.array_equal(out.positions[:, 0], init.positions[:, 0])
        # with x₁ frozen the left-point steps sum exactly to t·u
        expect = (init.positions[:, 1] + 0.7 * np.cos(init.positions[:, 0])) % TWO_PI
        assert np.abs(out.positions[:, 1] - expect).max() < 1e-12

    def test_scalar_exponential_brownian(self):
        # dY = Y dZ via the same second-order update: y ← y(1 + Z + 𝕫).
        # Geometric scalar lift has 𝕫 = Z²/2, so refinement approaches e^{Z_T}.
        rng = np.random.default_rng(0)
        n_fine = 4096
        incs = rng.normal(scale=math.sqrt(1.0 / n_fine), size=n_fine)
        B = np.r_[0.0, np.cumsum(incs)]
        errors = []
        for level in (256, 1024, 4096):
            stride = n_fine // level
            times = np.linspace(0.0, 1.0, level + 1)
            rp = lift_piecewise_linear(times, B[::stride][:, None], p_exponent=2.5)
            y = 1.0
            for k in range(level):
                Z, A = rp.increment(times[k], times[k + 1])
                y *= 1.0 + Z[0] + A[0, 0]
            errors.append(abs(y - math.exp(B[-1])) / math.exp(B[-1]))
        assert errors[-1] <= 0.01  # 1% at mesh 2⁻¹²
        assert errors[0] > errors[1] > errors[2]

    def test_sign_convention_matches_negated_first_level(self):
        rp = brownian_driver(5, 16)
        drift = ShearField(amplitude=0.5, wavenumber=1, axis=0)
        init = ParticleFlow.lattice(6)
        minus = FlowProblem(drift, DriverPair(shear_sigma(), rp, -1), init, rp.times)
        rp_neg = RoughPath(rp.times, -rp.values, rp.segment_area, rp.p_exponent)
        plus = FlowProblem(drift, DriverPair(shear_sigma(), rp_neg, 1), init, rp.times)
        a = solve_flow(minus).final.positions
        b = solve_flow(plus).final.positions
        assert np.array_equal(a, b)  # second level is sign-blind, so bitwise

    @pytest.mark.parametrize("sigmas", [
        (GradPerpField(0.4, (1, 2), 0.3),),
        (SumField(ShearField(0.3, 1, 0), GradPerpField(0.2, (2, -1))),
         ConstantField([0.3, -0.1])),
        (GradPerpField(0.3, (1, 1)),
         SumField(GradPerpField(0.2, (0, 1), 1.1), ConstantField([0.1, 0.2])),
         ConstantField([0.0, 0.4])),
    ], ids=["M1", "M2", "M3"])
    def test_second_level_matches_einsum_reference(self, sigmas):
        rng = np.random.default_rng(len(sigmas))
        pos = rng.uniform(0.0, TWO_PI, (300, 2))
        A = rng.standard_normal((len(sigmas), len(sigmas)))  # not symmetric
        S = np.stack([f(pos) for f in sigmas])
        expect = second_level_by_einsum(sigmas, pos, A)
        got = _second_level(sigmas, S, pos, A)
        assert got.shape == pos.shape
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_step_matches_the_second_level_closed_form(self, seed):
        # Two unit shears do not commute, and a step across the nodes of a
        # restricted lift carries a Lévy area, so 𝕫 is not symmetric.  Each
        # shear has (σ·∇)σ = 0, so with no drift the step is exactly
        #   x − Σ_j Z^j σ_j + 𝕫¹²(σ₁·∇)σ₂ + 𝕫²¹(σ₂·∇)σ₁,
        # with (σ₁·∇)σ₂ = (0.3 cos x₁·(−0.3 sin x₂), 0) and
        # (σ₂·∇)σ₁ = (0, 0.3 cos x₂·(−0.3 sin x₁)).  Dropping the term,
        # symmetrizing 𝕫 or transposing it each misses by more than 1e-3.
        times = np.linspace(0.0, 1.0, 65)
        rp = lift_piecewise_linear(times, sample_fbm(0.5, 64, 1.0, dims=2, seed=seed),
                                   2.6).restrict(times[::8])
        sigmas = (ShearField(0.3, 1, 0), ShearField(0.3, 1, 1))
        init = ParticleFlow.lattice(8)
        prob = FlowProblem(None, DriverPair(sigmas, rp, -1), init, rp.times)
        s, t = rp.times[0], rp.times[1]
        Z, A = rp.increment(s, t)
        assert abs(A[0, 1] - A[1, 0]) > 1e-2     # the area is there
        x1, x2 = init.positions.T
        expect = np.stack([
            x1 - Z[1] * (0.3 * np.cos(x2)) + A[0, 1] * (0.3 * np.cos(x1)) * (-0.3 * np.sin(x2)),
            x2 - Z[0] * (0.3 * np.cos(x1)) + A[1, 0] * (0.3 * np.cos(x2)) * (-0.3 * np.sin(x1)),
        ], axis=-1)
        got = davie_step(init.positions, s, t, prob)
        assert torus_dist(got, expect).max() <= 1e-14

    @pytest.mark.parametrize("hurst", [0.5, 0.4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_staircase_march_matches_the_exact_flow(self, seed, hurst):
        # Stepping on every staircase node, each step sees one shear and a
        # diagonal 𝕫, so the Davie step is that shear's exact flow (measured
        # 1.1e-14 to 1.4e-14).  256 coarse steps on the same lift carry the
        # staircase's Lévy area; measured, they beat the piecewise-linear lift
        # of the same nodes (no area) by 2.1×, 37× and 48× at H = ½ and 2.2×,
        # 20× and 26× at H = 0.4.  Dropping, symmetrizing or transposing 𝕫
        # loses that gap.
        values = sample_fbm(hurst, 512, 1.0, dims=2, seed=seed)
        p = _p_from_hurst(hurst)
        stair = staircase_lift(values, p)
        init = ParticleFlow.lattice(24)
        exact = staircase_flow(values, init.positions)

        def error(path, step_times):
            prob = FlowProblem(None, DriverPair(unit_shears(), path, -1), init, step_times)
            return torus_dist(solve_flow(prob).final.positions, exact).max()

        assert error(stair, stair.times) <= 1e-13
        coarse = stair.times[::4]
        area_free = lift_piecewise_linear(coarse, values[::2], p)
        assert error(area_free, coarse) >= 1.5 * error(stair, coarse)

    def test_step_does_not_depend_on_the_blocking(self):
        # davie_step works through the particles in blocks; each particle's
        # arithmetic is its own, so stepping any split of the cloud gives the
        # same bits as stepping it whole
        rng = np.random.default_rng(4)
        n = 2 * _PARTICLE_BLOCK + 1234
        pos = rng.uniform(0.0, TWO_PI, (n, 2))
        u = biot_savart(vorticity_from_modes([(1, 0, 1.0), (2, 1, 0.5)], 16))
        sigmas = (SumField(ShearField(0.3, 1, 0), GradPerpField(0.2, (2, -1))),
                  ShearField(0.3, 1, 1))
        rp = brownian_driver(4, 8, scale=0.3)
        prob = FlowProblem(GridDrift([0.0], [u]), DriverPair(sigmas, rp, -1),
                           ParticleFlow(pos, pos, 1.0), rp.times)
        s, t = rp.times[2], rp.times[3]
        whole = davie_step(pos, s, t, prob)
        parts = np.concatenate([davie_step(pos[i:i + 1000], s, t, prob)
                                for i in range(0, n, 1000)])
        assert whole.tobytes() == parts.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), a=st.floats(-0.5, 0.5),
           b=st.floats(-0.5, 0.5))
    def test_constant_sigma_translation_property(self, seed, a, b):
        rp = brownian_driver(seed, 8)
        sig = (ConstantField([a, 0.0]), ConstantField([0.0, b]))
        init = ParticleFlow.lattice(3)
        prob = FlowProblem(None, DriverPair(sig, rp, 1), init, rp.times)
        out = solve_flow(prob, check=False).final
        Z = rp.increment(rp.times[0], rp.times[-1])[0]
        expect = init.positions + np.array([a * Z[0], b * Z[1]])
        assert torus_dist(out.positions, expect).max() < 1e-12


# ---------------------------------------------------------------------------
# problem validation and step guards
# ---------------------------------------------------------------------------

class TestGuards:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_coarse_step_grid_matches_the_restricted_lift(self, seed):
        # a step across several driver segments reads their Chen-composed
        # (Z, 𝕫), which is what the restricted lift stores per segment
        times = np.linspace(0.0, 1.0, 513)
        rp = lift_piecewise_linear(times, sample_fbm(0.5, 512, 1.0, dims=2, seed=seed),
                                   _p_from_hurst(0.5))
        init = ParticleFlow.lattice(24)
        coarse = times[::16]
        finals = [solve_flow(FlowProblem(None, DriverPair(unit_shears(), path, -1),
                                         init, coarse)).final.positions
                  for path in (rp, rp.restrict(coarse))]
        assert torus_dist(*finals).max() <= 1e-13

    def test_refinement_check_memory_is_linear_in_steps(self):
        rp = brownian_driver(0, 4096)
        driver = DriverPair(shear_sigma(), rp, 1)
        initial = ParticleFlow.lattice(4)
        tracemalloc.start()
        try:
            FlowProblem(None, driver, initial, rp.times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak

    def test_step_grid_must_stay_in_span(self):
        rp = brownian_driver(0, 8)
        with pytest.raises(GridError, match="span"):
            FlowProblem(None, DriverPair(shear_sigma(), rp, 1),
                        ParticleFlow.lattice(4), np.linspace(0, 2, 17))

    def test_aliasing_guard_fires_on_torus_wrapping_step(self):
        rp = lift_piecewise_linear([0.0, 1.0], [[0.0, 0.0], [40.0, 0.0]],
                                   p_exponent=2.0)
        sig = (ConstantField([1.0, 0.0]), ConstantField([0.0, 1.0]))
        prob = FlowProblem(None, DriverPair(sig, rp, 1),
                           ParticleFlow.lattice(4), [0.0, 1.0])
        with pytest.raises(StepSizeError, match="half the domain"):
            solve_flow(prob)

    def test_threshold_guard_fires_outside_small_regime(self):
        rp = lift_piecewise_linear([0.0, 1.0], [[0.0, 0.0], [0.9, 0.7]],
                                   p_exponent=2.0)
        sig = (ShearField(amplitude=2.0, wavenumber=3, axis=0),
               ConstantField([0.0, 0.5]))
        prob = FlowProblem(None, DriverPair(sig, rp, 1),
                           ParticleFlow.lattice(4), [0.0, 1.0])
        with pytest.raises(StepSizeError, match="small-threshold"):
            solve_flow(prob)

    def test_guard_errors_name_the_step(self):
        rp = lift_piecewise_linear([0.0, 0.5, 1.0],
                                   [[0.0, 0.0], [0.1, 0.0], [40.0, 0.0]],
                                   p_exponent=2.0)
        sig = (ConstantField([1.0, 0.0]), ConstantField([0.0, 1.0]))
        prob = FlowProblem(None, DriverPair(sig, rp, 1),
                           ParticleFlow.lattice(4), rp.times)
        with pytest.raises(StepSizeError, match="half the domain") as info:
            solve_flow(prob)
        assert info.value.step == 1
        assert info.value.interval == (0.5, 1.0)
        assert info.value.value == pytest.approx(39.9)

    def test_non_finite_positions_name_the_step(self):
        rp = brownian_driver(3, 8)

        def blows_up(t, x):
            return np.full_like(x, np.inf if t >= 0.5 else 0.0)

        drift = CallableDrift(blows_up, sup_norm=1.0, log_lipschitz=1.0)
        prob = FlowProblem(drift, DriverPair(shear_sigma(), rp, -1),
                           ParticleFlow.lattice(4), rp.times)
        with pytest.raises(StepSizeError, match="non-finite") as info:
            solve_flow(prob, check=False)
        assert info.value.step == 4
        assert info.value.interval == (0.5, 0.625)
        assert info.value.value == 32          # every coordinate of 16 particles

    def test_check_catches_understated_sup_norm(self):
        rp = brownian_driver(0, 8)
        liar = CallableDrift(lambda t, x: np.stack(
            [np.sin(x[..., 1]), np.zeros_like(x[..., 0])], axis=-1),
            sup_norm=0.1, log_lipschitz=5.0)
        prob = FlowProblem(liar, DriverPair(zero_sigma(), rp, 1),
                           ParticleFlow.lattice(4), rp.times)
        with pytest.raises(HypothesisError, match="sup norm"):
            prob.check()

    def test_check_catches_understated_log_lipschitz(self):
        rp = brownian_driver(0, 8)
        liar = CallableDrift(lambda t, x: np.stack(
            [np.sin(4 * x[..., 1]), np.zeros_like(x[..., 0])], axis=-1),
            sup_norm=1.0, log_lipschitz=0.05)
        prob = FlowProblem(liar, DriverPair(zero_sigma(), rp, 1),
                           ParticleFlow.lattice(4), rp.times)
        with pytest.raises(HypothesisError, match="log-Lipschitz"):
            prob.check()

    def test_check_passes_honest_drift(self):
        rp = brownian_driver(0, 8)
        prob = FlowProblem(cellular_drift(), DriverPair(zero_sigma(), rp, 1),
                           ParticleFlow.lattice(4), rp.times)
        report = prob.check()
        assert report["sup_norm"] == pytest.approx(0.9)

    @pytest.mark.parametrize("k", [1, 4, 8, 16])
    def test_check_passes_estimated_callable_drift(self, k):
        # the estimate samples short separations, as the check does; from
        # uniform pairs alone (separations near π) it fell below the check's
        # sampled ratio at k = 8 and k = 16
        rp = brownian_driver(0, 8)
        honest = CallableDrift(lambda t, x: np.stack(
            [np.sin(k * x[..., 1]), np.zeros_like(x[..., 0])], axis=-1))
        prob = FlowProblem(honest, DriverPair(zero_sigma(), rp, 1),
                           ParticleFlow.lattice(4), rp.times)
        assert prob.check()["log_lipschitz"] == honest.log_lipschitz

    @pytest.mark.parametrize("modes", [((0, 6, 1.0),), ((3, 4, 1.0),)])
    def test_grid_drift_check_repeats(self, modes):
        # a grid drift's constant is its own measurement; a second check once
        # held a fresh short-separation sample against it and raised
        rp = brownian_driver(0, 8)
        w0 = vorticity_from_modes(list(modes), 32)
        drift = GridDrift(np.array([0.0]),
                          [biot_savart(VorticityGrid(w0.values - w0.mean))])
        prob = FlowProblem(drift, DriverPair(zero_sigma(), rp, 1),
                           ParticleFlow.lattice(4), rp.times)
        first = prob.check()
        assert prob.check() == first
        assert first["log_lipschitz"] == drift.log_lipschitz

    def test_nan_callable_drift_is_reported_not_estimated(self):
        # NaN on part of the torus once fell out of the sampled max, leaving
        # an estimate of sup_norm = log_lipschitz = 1e-12
        def patchy(t, x):
            return np.where(x[..., :1] < 1.0, np.nan, np.sin(x))

        rp = brownian_driver(0, 8)
        estimated = CallableDrift(patchy)
        assert math.isnan(estimated.sup_norm)
        assert math.isnan(estimated.log_lipschitz)
        declared = CallableDrift(patchy, sup_norm=1.0, log_lipschitz=3.0)
        for drift, match in ((estimated, "sup norm must be finite"),
                             (declared, "non-finite velocities")):
            prob = FlowProblem(drift, DriverPair(zero_sigma(), rp, 1),
                               ParticleFlow.lattice(4), rp.times)
            with pytest.raises(HypothesisError, match=match):
                prob.check()

    def test_q_exponent_default(self):
        rp = brownian_driver(0, 8, p=2.5)
        prob = FlowProblem(None, DriverPair(zero_sigma(), rp, 1),
                           ParticleFlow.lattice(4), rp.times)
        assert prob.q_exponent == pytest.approx(2.75)


# ---------------------------------------------------------------------------
# trajectories, storage, diagnostics
# ---------------------------------------------------------------------------

class TestSolveFlow:
    def test_default_storage_keeps_endpoints_only(self):
        rp = brownian_driver(3, 16)
        prob = FlowProblem(None, DriverPair(shear_sigma(), rp, -1),
                           ParticleFlow.lattice(4), rp.times)
        traj = solve_flow(prob)
        assert len(traj.flows) == 2
        assert traj.times[0] == 0.0 and traj.times[-1] == 1.0

    def test_step_storage_and_explicit_times(self):
        rp = brownian_driver(3, 16)
        prob = FlowProblem(None, DriverPair(shear_sigma(), rp, -1),
                           ParticleFlow.lattice(4), rp.times)
        full = solve_flow(prob, store_times="steps")
        assert len(full.flows) == 17
        some = solve_flow(prob, store_times=rp.times[[0, 8, 16]])
        assert [f.time for f in some.flows] == [0.0, 0.5, 1.0]
        with pytest.raises(GridError):
            solve_flow(prob, store_times=[0.123])

    def test_diagnostics_stabilize_under_refinement(self):
        # a-priori bound restated: measured localized norms do not grow
        init = ParticleFlow.lattice(8)
        drift = cellular_drift()
        norms = []
        for n in (128, 256):
            rp = brownian_driver(0, n)
            prob = FlowProblem(drift, DriverPair(shear_sigma(), rp, -1),
                               init, rp.times)
            d = flow_diagnostics(prob, 16)
            norms.append((d.flow_variation, d.remainder_variation))
        assert norms[1][0] <= norms[0][0] * 1.05
        assert norms[1][1] <= norms[0][1] * 1.05
        # measured once and frozen: coarse run gives ~0.121 / ~0.284
        assert norms[0][0] == pytest.approx(0.1209, rel=0.05)
        assert norms[0][1] == pytest.approx(0.2836, rel=0.05)

    def test_diagnostics_remainder_vanishes_for_constant_sigma(self):
        rp = brownian_driver(1, 32)
        sig = (ConstantField([0.3, 0.0]), ConstantField([0.0, 0.2]))
        prob = FlowProblem(None, DriverPair(sig, rp, 1),
                           ParticleFlow.lattice(5), rp.times)
        d = flow_diagnostics(prob, 9)
        assert d.remainder_variation < 1e-10
        assert d.flow_variation > 0.01
        assert d.grid_nodes == 33

    def test_diagnostic_grid_is_capped(self):
        rp = brownian_driver(2, 512)
        prob = FlowProblem(None, DriverPair(shear_sigma(), rp, -1),
                           ParticleFlow.lattice(4), rp.times)
        d = flow_diagnostics(prob, 4)
        assert d.grid_nodes <= 257


# ---------------------------------------------------------------------------
# inverse flows
# ---------------------------------------------------------------------------

class TestInverseFlow:
    def test_backward_ode_matches_rk4_and_refines_first_order(self):
        drift = cellular_drift()
        init = ParticleFlow.lattice(8)
        oracle = rk4_flow(lambda t, x: -drift(x), init.positions,
                          0.0, 1.0, 2048) % TWO_PI
        dists, defects = [], []
        for n in (64, 128, 256):
            rp = brownian_driver(0, n)
            prob = FlowProblem(drift, DriverPair(zero_sigma(), rp, 1),
                               init, rp.times)
            res = solve_inverse_flow(prob)
            dists.append(torus_dist(res.flow.positions, oracle).max())
            defects.append(res.composition_defect_max)
        assert dists[-1] < 1e-3  # measured 3.8e-4 at n=256
        slope = -np.polyfit(np.log([64, 128, 256]), np.log(dists), 1)[0]
        assert slope > 0.9  # measured 1.00: left-point stepping is order one
        assert defects[0] > defects[1] > defects[2]

    def test_rough_composition_defect_has_positive_order(self):
        drift = cellular_drift()
        init = ParticleFlow.lattice(8)
        defects = []
        for n in (64, 128, 256):
            rp = brownian_driver(0, n)
            prob = FlowProblem(drift, DriverPair(shear_sigma(), rp, -1),
                               init, rp.times)
            defects.append(solve_inverse_flow(prob).composition_defect_max)
        slope = -np.polyfit(np.log([64, 128, 256]), np.log(defects), 1)[0]
        assert slope > 0.6  # measured ~0.91 on this seed
        assert defects[-1] < defects[0]

    def test_inverse_at_interior_node(self):
        rp = brownian_driver(4, 16)
        sig = (ConstantField([0.3, 0.0]), ConstantField([0.0, 0.2]))
        init = ParticleFlow.lattice(5)
        prob = FlowProblem(None, DriverPair(sig, rp, 1), init, rp.times)
        res = solve_inverse_flow(prob, t=0.5)
        Z = rp.increment(0.0, 0.5)[0]
        expect = (init.positions - np.array([0.3 * Z[0], 0.2 * Z[1]])) % TWO_PI
        assert np.abs(res.flow.positions - expect).max() < 1e-13
        assert res.composition_defect_max < 1e-13
        assert res.flow.direction == "backward"

    @pytest.mark.parametrize("modes", [((0, 6, 1.0),), ((3, 4, 1.0),)])
    def test_inverse_of_grid_drift_checks_the_forward_contract(self, modes):
        # the time-reversed copy was once held against the forward grid
        # drift's measured constant and raised ("sampled ratio 0.375 >
        # declared 0.297" and "0.383 > 0.318")
        rp = brownian_driver(0, 8)
        w0 = vorticity_from_modes(list(modes), 32)
        drift = GridDrift(np.array([0.0]),
                          [biot_savart(VorticityGrid(w0.values - w0.mean))])
        prob = FlowProblem(drift, DriverPair(zero_sigma(), rp, 1),
                           ParticleFlow.lattice(4), rp.times)
        res = solve_inverse_flow(prob)
        assert res.flow.direction == "backward"
        assert res.composition_defect_max < 1e-5  # measured 4.4e-16, 1.0e-6

    def test_one_forward_check_and_one_reversal_per_solve(self, monkeypatch):
        # the backward copy of the drift is not checked again, and one
        # backward problem serves the inverse and the round trip
        import roughflow.flow
        checked, reversals = [], []
        check, reverse = FlowProblem.check, roughflow.flow.reverse_rough_path
        monkeypatch.setattr(FlowProblem, "check",
                            lambda self: checked.append(self) or check(self))
        monkeypatch.setattr(roughflow.flow, "reverse_rough_path",
                            lambda rp, t: reversals.append(t) or reverse(rp, t))
        rp = brownian_driver(4, 8)
        prob = FlowProblem(cellular_drift(), DriverPair(zero_sigma(), rp, 1),
                           ParticleFlow.lattice(4), rp.times)
        solve_inverse_flow(prob, t=0.5)
        assert [c is prob for c in checked] == [True]
        assert reversals == [0.5]

    def test_inverse_requires_positive_time(self):
        rp = brownian_driver(4, 8)
        prob = FlowProblem(None, DriverPair(zero_sigma(), rp, 1),
                           ParticleFlow.lattice(4), rp.times)
        with pytest.raises(GridError):
            solve_inverse_flow(prob, t=0.0)


# ---------------------------------------------------------------------------
# measure preservation
# ---------------------------------------------------------------------------

class TestMeasurePreservation:
    def test_deposited_mean_conserved_and_occupancy_uniform(self):
        N = 32
        x = np.arange(N) * TWO_PI / N
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        w0 = VorticityGrid(np.cos(X1) + 0.5 * np.sin(2 * X2))
        rp = brownian_driver(7, 32)
        init = ParticleFlow.lattice(64, w0)
        prob = FlowProblem(cellular_drift(), DriverPair(shear_sigma(), rp, -1),
                           init, rp.times)
        fin = solve_flow(prob).final
        assert abs(fin.deposit(N).mean - init.deposit(N).mean) < 1e-10
        chi2, threshold = occupancy_chi_squared(fin.positions, 16)
        assert chi2 <= threshold
        assert chi2 < threshold / 4  # lattice stays low-discrepancy

    def test_occupancy_rejects_clustering(self):
        # the reference statistic's own check: clustering exceeds the threshold
        rng = np.random.default_rng(0)
        clustered = rng.normal(loc=math.pi, scale=0.1, size=(4096, 2)) % TWO_PI
        chi2, threshold = occupancy_chi_squared(clustered, 16)
        assert chi2 > threshold

    def test_weights_survive_transport_bitwise(self):
        rp = brownian_driver(9, 16)
        init = ParticleFlow.lattice(6, lambda x1, x2: np.sin(x1))
        prob = FlowProblem(None, DriverPair(shear_sigma(), rp, -1),
                           init, rp.times)
        fin = solve_flow(prob).final
        assert fin.weights is init.weights


# ---------------------------------------------------------------------------
# the nonlocal (self-consistent) flow
# ---------------------------------------------------------------------------

class TestNonlocalFlow:
    def test_refrozen_drift_equals_a_fresh_one_bitwise(self):
        rng = np.random.default_rng(8)
        first, second = (biot_savart(VorticityGrid(v - v.mean()))
                         for v in rng.standard_normal((2, 16, 16)))
        pts = rng.uniform(0.0, TWO_PI, (300, 2))
        drift = _freeze(None, 0.0, first)
        grids = drift._grids[0]
        assert _freeze(drift, 0.5, second) is drift
        assert drift._grids[0] is grids              # refilled in place
        assert drift.times.tolist() == [0.5]
        assert drift.sup_norm == float(np.abs(second).max())
        got = drift.velocity(0.5, pts)
        assert got.tobytes() == interpolate_velocity(second, pts).tobytes()
        assert got.tobytes() == GridDrift([0.5], [second]).velocity(0.5, pts).tobytes()
        with pytest.raises(GridError, match="one-snapshot"):
            _freeze(GridDrift([0.0, 1.0], [first, second]), 0.5, first)

    def test_zero_vorticity_reduces_to_pure_noise_flow(self):
        N = 16
        w0 = VorticityGrid(np.zeros((N, N)))
        rp = brownian_driver(1, 16)
        drv = DriverPair(shear_sigma(), rp, -1)
        traj = solve_nonlocal_flow(w0, drv, rp.times, particles_per_side=24)
        init = ParticleFlow.lattice(24)
        prob = FlowProblem(None, drv, init, rp.times)
        pure = solve_flow(prob).final
        assert np.abs(traj.final.positions - pure.positions).max() < 1e-12

    def test_shear_state_translates_with_constant_sigma(self):
        # w₀ = cos x₁ is steady for its own velocity; constant σ only
        # translates it, so w_t(x) = cos(x₁ + ε σ¹ Z_t).
        N = 32
        x = np.arange(N) * TWO_PI / N
        X1 = np.meshgrid(x, x, indexing="ij")[0]
        w0 = VorticityGrid(np.cos(X1))
        rp = brownian_driver(1, 32, scale=0.05, horizon=0.5)
        sig = (ConstantField([0.4, 0.0]), ConstantField([0.0, 0.25]))
        drv = DriverPair(sig, rp, -1)
        traj = solve_nonlocal_flow(w0, drv, rp.times)
        dep = traj.final.deposit(N)
        Z1 = rp.increment(rp.times[0], rp.times[-1])[0][0]
        expect = np.cos(X1 - 0.4 * Z1)
        assert np.abs(dep.values - expect).max() < 5e-3  # measured 3.1e-3

    def test_undersampled_ensemble_is_rejected(self):
        from roughflow.errors import UndersamplingError
        N = 32
        w0 = VorticityGrid(np.zeros((N, N)))
        rp = brownian_driver(1, 4)
        with pytest.raises(UndersamplingError):
            solve_nonlocal_flow(w0, DriverPair(shear_sigma(), rp, -1), rp.times,
                                particles_per_side=16)


# ---------------------------------------------------------------------------
# mollified-drift refinement (Osgood dominance)
# ---------------------------------------------------------------------------

class TestMollifiedDrift:
    def test_refinement_distances_obey_osgood_envelope(self):
        N = 128
        x = np.arange(N) * TWO_PI / N
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        rng = np.random.default_rng(11)
        w = np.zeros((N, N))
        modes = [(1, 0, 1.0), (0, 1, 0.8), (2, 1, 0.5), (3, 2, 0.35),
                 (5, 1, 0.3), (6, 4, 0.2), (8, 3, 0.15)]
        for k1, k2, a in modes:
            w += a * np.cos(k1 * X1 + k2 * X2 + rng.uniform(0, TWO_PI))
        u = biot_savart(VorticityGrid(w - w.mean()))
        rp = brownian_driver(4, 128)
        init = ParticleFlow.lattice(12)

        etas = [0.8, 0.4, 0.2, 0.1]
        finals, fields = [], []
        for eta in etas:
            mollified = np.stack([mollify(u[0], eta), mollify(u[1], eta)])
            prob = FlowProblem(GridDrift([0.0], [mollified]),
                               DriverPair(shear_sigma(), rp, -1), init, rp.times)
            finals.append(solve_flow(prob, check=False).final.positions)
            fields.append(mollified)

        horizon = 1.0
        prev = math.inf
        for i in range(len(etas) - 1):
            dist = torus_dist(finals[i], finals[i + 1]).max()
            z0 = horizon * np.abs(fields[i] - fields[i + 1]).max()
            envelope = math.e * z0 ** math.exp(-horizon)
            assert dist <= envelope
            assert dist < prev
            prev = dist
        # frozen once: the finest pair measured 9.4e-3
        assert prev == pytest.approx(9.40e-3, rel=0.1)


# ---------------------------------------------------------------------------
# two-solution stability bound
# ---------------------------------------------------------------------------

class TestStabilityBound:
    @staticmethod
    def _solve(sig, drift, values, init, times):
        rp = lift_piecewise_linear(times, values, p_exponent=2.5)
        prob = FlowProblem(drift, DriverPair(sig, rp, -1), init, times)
        traj = solve_flow(prob, store_times="steps", check=False)
        return traj.positions_array(), rp, prob.q_exponent

    def test_perturbations_are_dominated_with_frozen_constant(self):
        n = 128
        times = np.linspace(0.0, 1.0, n + 1)
        base_vals = brownian_values(0, n)
        init = ParticleFlow.lattice(10)
        drift = cellular_drift()
        base, rp1, q = self._solve(shear_sigma(), drift, base_vals, init, times)

        cases = []
        shifted = ParticleFlow(init.labels, init.positions + np.array([0.01, 0.005]),
                               init.weights)
        cases.append((self._solve(shear_sigma(), drift, base_vals, shifted, times),
                      dict()))
        sig2 = (ShearField(amplitude=0.35, wavenumber=1, axis=0), shear_sigma()[1])
        diff_c3 = ShearField(amplitude=0.05, wavenumber=1, axis=0).c_norm(3)
        cases.append((self._solve(sig2, drift, base_vals, init, times),
                      dict(sigma_diff_c3=diff_c3)))
        vals2 = base_vals + 0.02 * brownian_values(5, n, scale=1.0)
        cases.append((self._solve(shear_sigma(), drift, vals2, init, times),
                      dict()))
        drift2 = SumField(ShearField(amplitude=0.52, wavenumber=1, axis=0),
                          ShearField(amplitude=0.4, wavenumber=1, axis=1))
        cases.append((self._solve(shear_sigma(), drift2, base_vals, init, times),
                      dict(u_diff_sup=0.02)))

        for (other, rp2, _), extras in cases:
            sup_d = torus_dist(base, other).max(axis=-1).max()
            bound = lagrangian_stability_bound(
                times, base, other, rp1, rp2, q=q,
                constant=LAGRANGIAN_STABILITY_CONSTANT, **extras)
            assert sup_d <= bound  # calibration measured ratios ≤ 0.32

    def test_identical_solves_give_zero_on_both_sides(self):
        n = 32
        times = np.linspace(0.0, 1.0, n + 1)
        vals = brownian_values(3, n)
        init = ParticleFlow.lattice(5)
        traj, rp, q = self._solve(shear_sigma(), None, vals, init, times)
        assert torus_dist(traj, traj).max() == 0.0
        bound = lagrangian_stability_bound(times, traj, traj, rp, rp, q=q)
        assert bound == 0.0

    def test_trajectory_shape_mismatch_rejected(self):
        times = np.linspace(0.0, 1.0, 5)
        rp = brownian_driver(0, 4)
        good = np.zeros((5, 3, 2))
        with pytest.raises(GridError):
            lagrangian_stability_bound(times, good, np.zeros((4, 3, 2)), rp, rp)
