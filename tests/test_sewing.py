"""Controlled paths, sewing, rough integration, and the stability bound."""

import math

import numpy as np
import pytest

from roughflow.errors import CoherenceError, GridError, HypothesisError
from roughflow.roughpath import lift_piecewise_linear, sample_fbm
from roughflow.sewing import (
    ControlledPath,
    integral_difference_bound,
    rough_integral,
    sew,
)
from roughflow.variation import Control, Localization, p_variation

from reference import local_error_report_by_pairs, riemann_stieltjes


def unit_times(n):
    return np.linspace(0.0, 1.0, n + 1)


def smooth_lift(n):
    """Canonical lift of the smooth scalar path t + sin(3t)/2 on [0, 1]."""
    t = unit_times(n)
    return t, lift_piecewise_linear(t, (t + 0.5 * np.sin(3 * t))[:, None])


def brownian_lift(seed, n=256, dims=1):
    t = unit_times(n)
    return t, lift_piecewise_linear(t, sample_fbm(0.5, n, dims=dims, seed=seed))


def sine_integrand(rp):
    """Y = sin(Z) componentwise, with its diagonal Gubinelli derivative."""
    z = rp.values
    m, d = z.shape
    derivative = np.zeros((m, d, d))
    idx = np.arange(d)
    derivative[:, idx, idx] = np.cos(z)
    return ControlledPath(rp, np.sin(z), derivative)


class TestControlledPath:
    def test_constant_path(self):
        _, rp = brownian_lift(0, n=32, dims=2)
        Y = ControlledPath.constant(rp, [1.0, -2.0])
        assert Y.values.shape == (33, 2)
        assert np.all(Y.derivative == 0.0)
        assert np.abs(Y.consecutive_remainders()).max() == 0.0

    def test_decomposition_is_exact_by_construction(self):
        t, rp = brownian_lift(1, n=24, dims=2)
        rng = np.random.default_rng(4)
        Y = ControlledPath(rp, rng.standard_normal((25, 3)),
                           rng.standard_normal((25, 3, 2)))
        R = Y.remainder_matrix()
        # definition check at an arbitrary pair
        i, j = 5, 17
        manual = (Y.values[j] - Y.values[i]
                  - Y.derivative[i] @ (rp.values[j] - rp.values[i]))
        assert np.allclose(R[i, j], manual, atol=1e-15)
        steps = np.arange(24)
        assert np.allclose(Y.consecutive_remainders(), R[steps, steps + 1], atol=1e-15)

    def test_smooth_function_remainder_is_second_order(self):
        # R_{s,t} = sin(Z_t) − sin(Z_s) − cos(Z_s) Z_{s,t} = O(|Z_{s,t}|²)
        t, rp = smooth_lift(128)
        Y = sine_integrand(rp)
        R = np.abs(Y.consecutive_remainders()).max()
        dz = np.abs(np.diff(rp.values, axis=0)).max()
        assert R <= dz ** 2

    def test_remainder_variation_localized_matches_global_for_large_threshold(self):
        t, rp = brownian_lift(2, n=64)
        Y = sine_integrand(rp)
        full = Y.remainder_variation()
        loc = Localization(Control.interval_power(t, 1.0), threshold=10.0)
        assert Y.remainder_variation(localization=loc) == pytest.approx(full, rel=1e-12)
        assert np.isfinite(Y.derivative_variation())

    def test_shape_validation(self):
        _, rp = brownian_lift(3, n=8, dims=2)
        with pytest.raises(GridError):
            ControlledPath(rp, np.zeros((7, 2)), np.zeros((7, 2, 2)))
        with pytest.raises(GridError):
            ControlledPath(rp, np.zeros((9, 2)), np.zeros((9, 2, 3)))


class TestSew:
    def control(self, t, scale=2.0):
        return Control.interval_power(t, 1.0, scale)

    def additive_germ(self, g):
        return g[None, :] - g[:, None]

    def test_additive_germ_sews_to_the_path(self):
        t = unit_times(100)
        g = np.cos(3 * t)
        res = sew(t, self.additive_germ(g), 0.5, self.control(t))
        assert np.allclose(res.values, g - g[0], atol=1e-13)
        assert res.max_defect <= 1e-13

    def test_young_germ_matches_riemann_stieltjes(self):
        n = 200
        t = unit_times(n)
        f, g = np.sin(t), t ** 2
        germ = f[:, None] * (g[None, :] - g[:, None])
        res = sew(t, germ, 0.5, self.control(t))
        # the sewn path IS the left-point sum on this grid
        assert res.values[-1] == pytest.approx(riemann_stieltjes(f, g), abs=1e-12)
        # and converges to the classical integral at first order in the mesh
        exact = 2 * (math.sin(1.0) - math.cos(1.0)) + 0.0  # ∫₀¹ sin(t)·2t dt
        exact = 2 * math.sin(1.0) - 2 * math.cos(1.0)
        assert abs(res.values[-1] - exact) <= 5.0 / n
        assert np.isfinite(res.constant)

    def test_injected_spike_is_rejected_with_located_triple(self):
        t = unit_times(11)
        g = np.sin(t)
        germ = self.additive_germ(g)
        germ[3, 7] += 3.0
        with pytest.raises(CoherenceError) as err:
            sew(t, germ, 0.5, self.control(t))
        s, u, tt = err.value.triple
        assert s in t and u in t and tt in t
        assert err.value.defect > 1  # reported as the ratio |δh|/ω^{1/ζ}

    def test_localization_masks_wide_pairs(self):
        t = unit_times(11)
        g = np.sin(t)
        germ = self.additive_germ(g)
        germ[0, 11] += 3.0  # violation confined to the widest window
        control = self.control(t, scale=1.0)
        loc = Localization(control, threshold=0.5)
        res = sew(t, germ, 0.5, control, localization=loc)
        assert res.max_defect <= 1e-13  # spiked pair inadmissible, never reported
        with pytest.raises(CoherenceError):
            sew(t, germ, 0.5, control)

    def test_partition_stability(self):
        n = 100
        t = unit_times(n)
        f, g = np.sin(t), np.cos(2 * t)
        germ = f[:, None] * (g[None, :] - g[:, None])
        full = sew(t, germ, 0.5, self.control(t)).values
        mid = n // 2
        left = sew(t[:mid + 1], germ[:mid + 1, :mid + 1], 0.5,
                   self.control(t[:mid + 1])).values
        right = sew(t[mid:], germ[mid:, mid:], 0.5, self.control(t[mid:])).values
        composed = np.concatenate([left, left[-1] + right[1:]])
        assert np.allclose(full, composed, atol=1e-13)

    def test_zeta_domain(self):
        t = unit_times(4)
        germ = self.additive_germ(np.sin(t))
        for zeta in (0.0, 1.0, 1.3):
            with pytest.raises(HypothesisError):
                sew(t, germ, zeta, self.control(t))

    def test_germ_shape_mismatch(self):
        t = unit_times(4)
        with pytest.raises(GridError):
            sew(t, np.zeros((4, 4)), 0.5, self.control(t))

    def test_result_unpacks(self):
        t = unit_times(10)
        vals, defect = sew(t, self.additive_germ(np.sin(t)), 0.5, self.control(t))
        assert vals.shape == (11,) and defect <= 1e-13


class TestRoughIntegral:
    def test_constant_integrand_telescopes(self):
        t, rp = brownian_lift(5, n=64, dims=2)
        Y = ControlledPath.constant(rp, np.array([[2.0, -1.0]]))  # V = ℝ¹
        I = rough_integral(Y)
        expected = (rp.values - rp.values[0]) @ np.array([2.0, -1.0])
        assert np.allclose(I.values[:, 0], expected, atol=1e-13)
        assert np.array_equal(I.derivative, Y.values)

    def test_integral_of_z_dz_is_the_second_level(self):
        t, rp = brownian_lift(6, n=128)
        Y = ControlledPath(rp, rp.values, np.ones((129, 1, 1)))
        I, rep = rough_integral(Y, report=True)
        for k in (1, 40, 128):
            assert I.values[k] == pytest.approx(rp.pair_second_level(0, k)[0, 0],
                                                abs=1e-13)
        # the germ is exact by Chen's relation, so the local error is rounding
        assert rep.max_defect <= 1e-12

    def test_two_dimensional_trace(self):
        t, rp = brownian_lift(7, n=64, dims=2)
        eye = np.broadcast_to(np.eye(2), (65, 2, 2)).copy()
        Y = ControlledPath(rp, rp.values, eye)
        I = rough_integral(Y)
        for k in (9, 64):
            assert I.values[k] == pytest.approx(np.trace(rp.pair_second_level(0, k)),
                                                abs=1e-13)

    def test_smooth_driver_second_order_convergence(self):
        errs = []
        for n in (64, 128, 256, 512):
            _, rp = smooth_lift(n)
            I = rough_integral(sine_integrand(rp))
            exact = math.cos(rp.values[0, 0]) - math.cos(rp.values[-1, 0])
            errs.append(abs(float(I.values[-1]) - exact))
        slopes = np.log2(np.array(errs[:-1]) / errs[1:])
        assert slopes.min() >= 1.9
        assert errs[-1] < 2e-6

    def test_brownian_local_error_contract(self):
        # empirical constant frozen from this seed (measured 0.196)
        _, rp = brownian_lift(3, n=256)
        I, rep = rough_integral(sine_integrand(rp), report=True)
        assert rep.pairs_checked == 257 * 256 // 2
        assert rep.constant <= 0.3

    def test_localized_report(self):
        t, rp = brownian_lift(8, n=64)
        from roughflow.roughpath import variation_control
        loc = Localization(variation_control(rp), threshold=0.5)
        I, rep = rough_integral(sine_integrand(rp), localization=loc, report=True)
        assert rep.pairs_checked < 65 * 64 // 2
        assert np.isfinite(rep.constant)

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("localized", [False, True])
    def test_report_matches_per_pair_germs(self, dims, localized):
        from roughflow.roughpath import variation_control
        _, rp = brownian_lift(10 + dims, n=48, dims=dims)
        rng = np.random.default_rng(dims)
        Y = ControlledPath(rp, rng.standard_normal((49, 3, dims)),
                           rng.standard_normal((49, 3, dims, dims)))
        loc = Localization(variation_control(rp), threshold=0.3) if localized else None
        _, rep = rough_integral(Y, localization=loc, report=True)
        assert rep == local_error_report_by_pairs(Y, loc)
        if localized:
            assert rep.pairs_checked < 49 * 48 // 2

    @pytest.mark.parametrize("dims", [1, 2])
    def test_report_builds_pair_tables_once(self, monkeypatch, dims):
        # one pair-table build serves both the driver control and the germs,
        # and the control equals a fresh variation_control bit for bit
        import roughflow.sewing
        from roughflow.roughpath import RoughPath, variation_control
        built, controls = [], []
        pair_tables = RoughPath.pair_tables
        control = roughflow.sewing._control_from_pair_tables

        def counted_pair_tables(rp, t):
            built.append(t)
            return pair_tables(rp, t)

        def kept_control(t, z, zz, p):
            controls.append(control(t, z, zz, p))
            return controls[-1]

        monkeypatch.setattr(RoughPath, "pair_tables", counted_pair_tables)
        monkeypatch.setattr(roughflow.sewing, "_control_from_pair_tables", kept_control)
        _, rp = brownian_lift(20 + dims, n=40, dims=dims)
        rough_integral(sine_integrand(rp), report=True)
        assert len(built) == 1 and len(controls) == 1
        monkeypatch.undo()
        expected = variation_control(rp, rp.times)
        assert np.array_equal(controls[0].pair_table(), expected.pair_table())

    def test_driver_grid_mismatch(self):
        _, rp1 = brownian_lift(9, n=32)
        _, rp2 = brownian_lift(9, n=64)
        Y = sine_integrand(rp1)
        with pytest.raises(GridError):
            rough_integral(Y, rp2)

    def test_operator_slot_mismatch(self):
        _, rp = brownian_lift(10, n=16, dims=2)
        with pytest.raises(GridError):
            ControlledPath(rp, np.zeros((17, 3)), np.zeros((17, 3, 3)))


class TestIntegralDifferenceBound:
    @staticmethod
    def coarsened_values(z, t, m):
        idx = np.linspace(0, len(t) - 1, m + 1).astype(int)
        return np.stack([np.interp(t, t[idx], z[idx, d]) for d in range(z.shape[1])],
                        axis=-1)

    def test_identical_inputs_give_zero(self):
        t, rp = brownian_lift(11, n=64, dims=2)
        Y = sine_integrand(rp)
        assert integral_difference_bound(Y, Y) == 0.0
        diff = rough_integral(Y).values - rough_integral(Y).values
        assert np.all(diff == 0.0)

    def test_constant_shift_dominated(self):
        t, rp = brownian_lift(5, n=256, dims=2)
        Y1 = sine_integrand(rp)
        Y2 = ControlledPath(rp, Y1.values + 0.3, Y1.derivative.copy())
        measured = p_variation(values=rough_integral(Y1).values
                               - rough_integral(Y2).values, p=2.5)
        bound = integral_difference_bound(Y1, Y2)
        assert measured <= bound  # measured ratio 0.67 on this seed

    def test_driver_refinement_shrinks_the_bound(self):
        t, rp_fine = brownian_lift(5, n=256, dims=2)
        z = rp_fine.values
        bounds = []
        for m in (16, 64, 256):
            rp_c = lift_piecewise_linear(t, self.coarsened_values(z, t, m))
            Y1, Y2 = sine_integrand(rp_fine), sine_integrand(rp_c)
            measured = p_variation(values=rough_integral(Y1).values
                                   - rough_integral(Y2).values, p=2.5)
            bound = integral_difference_bound(Y1, Y2)
            assert measured <= bound  # measured ratios ≤ 0.01 on this seed
            bounds.append(bound)
        assert bounds[0] > bounds[1] > bounds[2]
        assert bounds[2] == 0.0  # 256-point coarsening is the identity here

    def test_grid_mismatch_rejected(self):
        _, rp1 = brownian_lift(12, n=32, dims=2)
        _, rp2 = brownian_lift(12, n=64, dims=2)
        with pytest.raises(GridError):
            integral_difference_bound(sine_integrand(rp1), sine_integrand(rp2))

    def test_state_shape_mismatch_rejected(self):
        _, rp = brownian_lift(13, n=16, dims=2)
        Y1 = sine_integrand(rp)
        Y2 = ControlledPath.constant(rp, np.zeros((3, 2)))
        with pytest.raises(GridError):
            integral_difference_bound(Y1, Y2)
