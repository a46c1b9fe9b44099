"""Torus field algebra: catalog fields, Biot-Savart, γ, mollifier, transfer."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughflow.errors import (
    GridError,
    HypothesisError,
    QuadratureError,
    UndersamplingError,
)
from roughflow.fields import (
    BIOT_SAVART_LOG_LIPSCHITZ_CONSTANT,
    ConstantField,
    GradPerpField,
    ShearField,
    VorticityGrid,
    _interp_cubic,
    _mod_two_pi,
    _nearest_image,
    _padded_upsample,
    _upsample_work,
    biot_savart,
    deposit,
    field_from_spec,
    gamma,
    interpolate,
    interpolate_velocity,
    kernel_log_lipschitz_check,
    load_field_binary,
    load_field_csv,
    nodes_1d,
    save_field_binary,
    save_field_csv,
    torus_distance,
    vorticity_from_modes,
)
from roughflow.flow import _wrap, load_particles_binary, load_particles_csv
from roughflow.roughpath import load_rough_path_csv

from reference import (
    advected_by,
    cubic_by_modulo_gather,
    curl,
    deposit_by_modulo,
    fd_gradient,
    grid_l1,
    grid_w11,
    mollify,
    padded_upsample_by_irfft2,
    spectral_divergence,
    spectral_upsample_complex,
)

TWO_PI = 2.0 * math.pi


def random_points(seed, n=200):
    return np.random.default_rng(seed).uniform(0.0, TWO_PI, size=(n, 2))


def band_limited_grid(N, seed, cutoff=None):
    """Random real field with modes only up to |k| <= cutoff (default N//3)."""
    cutoff = N // 3 if cutoff is None else cutoff
    rng = np.random.default_rng(seed)
    W = np.fft.fft2(rng.standard_normal((N, N)))
    k = np.fft.fftfreq(N, d=1.0 / N)
    mask = (np.abs(k[:, None]) <= cutoff) & (np.abs(k[None, :]) <= cutoff)
    return VorticityGrid(np.fft.ifft2(W * mask).real)


# ---------------------------------------------------------------------------
# catalog fields
# ---------------------------------------------------------------------------

class TestFieldCatalog:
    FIELDS = [
        ConstantField([0.3, -1.1]),
        ShearField(amplitude=1.3, wavenumber=3, axis=0, phase=0.4),
        ShearField(amplitude=-0.8, wavenumber=2, axis=1),
        GradPerpField(amplitude=0.7, mode=(2, 1), phase=1.1),
        GradPerpField(amplitude=1.0, mode=(0, 3)),
    ]

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: type(f).__name__)
    def test_gradient_matches_finite_differences(self, field):
        pts = random_points(11, n=40)
        assert np.allclose(field.gradient(pts), fd_gradient(field, pts), atol=1e-8)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: type(f).__name__)
    def test_divergence_free(self, field):
        pts = random_points(12, n=40)
        assert np.abs(field.divergence(pts)).max() < 1e-12

    def test_shear_closed_form(self):
        field = ShearField(amplitude=2.0, wavenumber=1, axis=0)
        pts = np.array([[0.0, 0.0], [math.pi / 2, 1.0], [math.pi, 2.0]])
        vals = field(pts)
        assert np.allclose(vals[:, 0], 0.0)
        assert np.allclose(vals[:, 1], [2.0, 0.0, -2.0], atol=1e-15)

    def test_grad_perp_is_perpendicular_gradient_of_potential(self):
        a, mode, phase = 0.7, np.array([2.0, 1.0]), 1.1
        field = GradPerpField(a, mode, phase)
        pts = random_points(13, n=30)

        def potential(p):
            return a * np.cos(p[..., 0] * mode[0] + p[..., 1] * mode[1] + phase)

        h = 1e-6
        dpsi_1 = (potential(pts + [h, 0]) - potential(pts - [h, 0])) / (2 * h)
        dpsi_2 = (potential(pts + [0, h]) - potential(pts - [0, h])) / (2 * h)
        assert np.allclose(field(pts), np.stack([-dpsi_2, dpsi_1], axis=-1), atol=1e-8)

    def test_c_norms_closed_form(self):
        assert ShearField(1.3, wavenumber=3).c_norm(2) == pytest.approx(1.3 * 9)
        assert ShearField(1.3, wavenumber=1).c_norm(0) == pytest.approx(1.3)
        assert GradPerpField(0.7, (2, 1)).c_norm(0) == pytest.approx(1.4)
        assert GradPerpField(0.7, (2, 1)).c_norm(2) == pytest.approx(0.7 * 2 * 4)
        assert ConstantField([0.3, -1.1]).c_norm(5) == pytest.approx(1.1)

    def test_c_norm_dominates_samples(self):
        pts = random_points(14, n=500)
        for field in self.FIELDS:
            assert np.abs(field(pts)).max() <= field.c_norm(0) + 1e-12
            assert np.abs(field.gradient(pts)).max() <= field.c_norm(1) + 1e-12

    def test_advected_by_matches_directional_difference(self):
        sigma = GradPerpField(0.7, (2, 1), 1.1)
        tau = ShearField(1.3, wavenumber=3, axis=0, phase=0.4)
        pts = random_points(15, n=30)
        h = 1e-6
        v = tau(pts)
        expected = (sigma(pts + h * v) - sigma(pts - h * v)) / (2 * h)
        assert np.allclose(advected_by(sigma, tau, pts), expected, atol=1e-7)

    def test_field_from_spec_round_trip(self):
        pts = random_points(16, n=20)
        specs = [
            {"type": "constant", "value": [0.3, -1.1]},
            {"type": "shear", "amplitude": 1.3, "wavenumber": 3, "axis": 0, "phase": 0.4},
            {"type": "grad_perp", "amplitude": 0.7, "mode": [2, 1], "phase": 1.1},
        ]
        for spec, direct in zip(specs, [self.FIELDS[0], self.FIELDS[1], self.FIELDS[3]]):
            assert np.array_equal(field_from_spec(spec)(pts), direct(pts))
        with pytest.raises(GridError):
            field_from_spec({"type": "vortex"})

    def test_bad_parameters_rejected(self):
        with pytest.raises(GridError):
            ShearField(1.0, wavenumber=0)
        with pytest.raises(GridError):
            ShearField(1.0, axis=2)
        with pytest.raises(GridError):
            GradPerpField(1.0, (0, 0))


# ---------------------------------------------------------------------------
# vorticity grids and Biot-Savart
# ---------------------------------------------------------------------------

class TestVorticityGrid:
    def test_from_function_samples_nodes(self):
        g = VorticityGrid.from_function(8, lambda x1, x2: np.sin(x1) + 2 * np.cos(x2))
        x = nodes_1d(8)
        assert np.allclose(g.values, np.sin(x)[:, None] + 2 * np.cos(x)[None, :])

    def test_values_are_immutable(self):
        g = VorticityGrid.zeros(8)
        with pytest.raises(ValueError):
            g.values[0, 0] = 1.0

    def test_shape_and_finiteness_validation(self):
        with pytest.raises(GridError):
            VorticityGrid(np.zeros((8, 4)))
        with pytest.raises(GridError):
            VorticityGrid(np.zeros((12, 12)))  # not a power of two
        bad = np.zeros((8, 8))
        bad[3, 3] = np.nan
        with pytest.raises(GridError):
            VorticityGrid(bad)

    def test_arithmetic_requires_matching_resolution(self):
        a, b = VorticityGrid.zeros(8), VorticityGrid.zeros(16)
        with pytest.raises(GridError):
            _ = a - b

    def test_l1_is_grid_quadrature(self):
        # positive and band-limited, so the node sum is the exact integral
        g = VorticityGrid.from_function(64, lambda x1, x2: 2.0 + np.cos(x1))
        assert g.l1() == pytest.approx(8 * math.pi ** 2, rel=1e-12)


class TestBiotSavart:
    def test_single_mode_closed_form(self):
        g = VorticityGrid.from_function(64, lambda x1, x2: np.cos(x1))
        u = biot_savart(g)
        x = nodes_1d(64)
        assert np.abs(u[0]).max() < 1e-13
        assert np.allclose(u[1], np.sin(x)[:, None], atol=1e-13)

    def test_zero_maps_to_zero(self):
        assert np.all(biot_savart(VorticityGrid.zeros(16)) == 0.0)

    def test_round_trip_and_divergence_on_random_field(self):
        g = band_limited_grid(64, seed=5)
        g = VorticityGrid(g.values - g.values.mean())
        u = biot_savart(g)
        assert spectral_divergence(u) <= 1e-10
        assert np.abs(curl(u).values - g.values).max() <= 1e-10

    def test_rejects_nonzero_mean(self):
        g = VorticityGrid.from_function(16, lambda x1, x2: 1.0 + np.cos(x1))
        with pytest.raises(HypothesisError):
            biot_savart(g)


# ---------------------------------------------------------------------------
# the log-Lipschitz modulus and the kernel quadrature check
# ---------------------------------------------------------------------------

class TestGamma:
    def test_pinned_values(self):
        assert gamma(0.0) == 0.0
        assert gamma(1.0 / math.e) == pytest.approx(2.0 / math.e, rel=1e-15)
        assert gamma(1.0 / math.e - 1e-12) == pytest.approx(2.0 / math.e, rel=1e-9)
        assert gamma(1.0) == pytest.approx(1.0 + 1.0 / math.e, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(HypothesisError):
            gamma(-0.1)

    def test_vectorized_matches_scalar(self):
        r = np.array([0.0, 1e-6, 0.1, 1 / math.e, 2.0])
        assert np.array_equal(gamma(r), [gamma(v) for v in r])

    def test_nondecreasing_on_dense_sample(self):
        r = np.linspace(0.0, 4.0, 4001)
        assert np.all(np.diff(gamma(r)) >= 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-9, 4.0), st.floats(1e-9, 4.0))
    def test_midpoint_concavity(self, a, b):
        assert gamma(0.5 * (a + b)) >= 0.5 * (gamma(a) + gamma(b)) - 1e-12


class TestKernelCheck:
    def test_coincident_points_are_trivial(self):
        res = kernel_log_lipschitz_check([1.0, 2.0], [1.0, 2.0], 128)
        assert res.lhs == 0.0 and res.rhs == 0.0 and res.passed

    def test_pinned_reference_instance(self):
        lhs, rhs = kernel_log_lipschitz_check([0.7, 1.3], [0.7 + 1e-3, 1.3], 256)
        assert lhs <= rhs

    def test_antipodal_points(self):
        res = kernel_log_lipschitz_check([0.5, 0.5], [0.5 + math.pi, 0.5 + math.pi], 128)
        assert np.isfinite(res.lhs)
        assert res.distance == pytest.approx(math.pi * math.sqrt(2), rel=1e-12)
        assert res.passed

    @pytest.mark.parametrize("resolution", [128, 256])
    def test_resolved_separation_sweep(self, resolution):
        rho = TWO_PI / resolution
        x = np.array([0.7, 1.3])
        for d in [rho, 2 * rho, 0.1, 1 / math.e, 1.0, 3.0]:
            for theta in (0.0, 1.9):
                xp = x + d * np.array([math.cos(theta), math.sin(theta)])
                res = kernel_log_lipschitz_check(x, xp, resolution)
                assert res.lhs <= res.rhs, (d, theta, res)

    def test_reports_both_pieces(self):
        res = kernel_log_lipschitz_check([0.7, 1.3], [0.9, 1.3], 128)
        assert res.lhs == pytest.approx(res.quadrature + res.excised_bound)
        assert res.excised_bound == pytest.approx(4 * TWO_PI / 128)
        assert res.constant == BIOT_SAVART_LOG_LIPSCHITZ_CONSTANT
        assert res.rhs == pytest.approx(res.constant * gamma(res.distance))

    def test_too_coarse_quadrature_rejected(self):
        with pytest.raises(QuadratureError):
            kernel_log_lipschitz_check([0.0, 0.0], [1.0, 0.0], 32)

    def test_torus_distance_uses_nearest_image(self):
        assert torus_distance([0.1, 0.0], [TWO_PI - 0.1, 0.0]) == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

class TestMollify:
    def test_constant_field_unchanged(self):
        g = VorticityGrid(np.full((32, 32), 0.7))
        assert np.allclose(mollify(g, 0.5).values, 0.7, atol=1e-13)

    def test_mean_preserved_and_sup_not_increased(self):
        g = band_limited_grid(64, seed=9)
        m = mollify(g, 0.4)
        assert m.mean == pytest.approx(g.mean, abs=1e-13 * max(1.0, g.linf()))
        assert m.linf() <= g.linf() * (1 + 1e-12)

    def test_eta_domain(self):
        g = VorticityGrid.zeros(32)
        with pytest.raises(HypothesisError):
            mollify(g, 0.0)
        with pytest.raises(HypothesisError):
            mollify(g, 1.5)
        with pytest.raises(UndersamplingError):
            mollify(g, 0.2)  # 2h = 0.39 at N=32

    def test_plain_array_round_trip(self):
        arr = band_limited_grid(32, seed=4).values
        out = mollify(arr, 0.6)
        assert isinstance(out, np.ndarray) and out.shape == arr.shape

    def test_smoothing_error_linear_regime(self):
        # ‖(I−J^η) cos x₁‖_{L¹}/η stays bounded and shrinks with η
        # (frozen from a measured sweep; the kernel is symmetric, so the
        # error is one order better than the generic Lipschitz rate).
        g = VorticityGrid.from_function(128, lambda x1, x2: np.cos(x1))
        ratios = []
        for eta in (1.0, 0.7, 0.5, 0.3, 0.2, 0.1):
            err = grid_l1(g.values - mollify(g, eta).values)
            ratios.append(err / eta)
        assert max(ratios) <= 1.7
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < ratios[0] / 3

    def test_w11_smoothing_bound_white_noise(self):
        # ‖J^η f‖_{W^{1,1}} ≤ K·η⁻¹·‖f‖_{L¹}; K = 0.75 frozen from the same
        # sweep (measured max 0.708 at η = 0.2).
        noise = np.random.default_rng(7).standard_normal((128, 128))
        l1f = grid_l1(noise)
        for eta in (0.2, 0.3, 0.5, 0.7, 1.0):
            assert grid_w11(mollify(noise, eta)) <= 0.75 * l1f / eta


# ---------------------------------------------------------------------------
# interpolation and deposition
# ---------------------------------------------------------------------------

class TestInterpolate:
    def test_single_mode_spectral_exact(self):
        g = VorticityGrid.from_function(64, lambda x1, x2: np.sin(x1))
        pts = random_points(21)
        vals = interpolate(g, pts, method="spectral")
        assert np.allclose(vals, np.sin(pts[:, 0]), atol=1e-10)

    @pytest.mark.parametrize("method", ["spectral", "cubic"])
    def test_constant_field(self, method):
        g = VorticityGrid(np.full((32, 32), -2.5))
        vals = interpolate(g, random_points(22), method=method)
        assert np.allclose(vals, -2.5, atol=1e-12)

    @pytest.mark.parametrize("method", ["spectral", "cubic"])
    def test_collocation_at_grid_nodes(self, method):
        g = band_limited_grid(64, seed=23)
        x = nodes_1d(64)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        nodes = np.stack([X1, X2], axis=-1)
        vals = interpolate(g, nodes, method=method)
        assert np.allclose(vals, g.values, atol=1e-10)

    def test_cubic_accuracy_on_resolved_modes(self):
        # frozen from a measured sweep at N=64, upsample 4
        pts = random_points(24, n=2000)
        for mode, tol in [((1, 0), 1e-6), ((5, 3), 1e-4), ((10, 7), 1e-3)]:
            g = VorticityGrid.from_function(
                64, lambda x1, x2, m=mode: np.cos(m[0] * x1 + m[1] * x2 + 0.3))
            exact = np.cos(mode[0] * pts[:, 0] + mode[1] * pts[:, 1] + 0.3)
            err = np.abs(interpolate(g, pts, method="cubic") - exact).max()
            assert err <= tol, (mode, err)

    def test_point_shape_preserved(self):
        g = band_limited_grid(32, seed=25)
        pts = random_points(26, n=12).reshape(3, 4, 2)
        assert interpolate(g, pts, method="cubic").shape == (3, 4)

    def test_velocity_interpolation_matches_componentwise(self):
        g = VorticityGrid.from_function(64, lambda x1, x2: np.cos(x1) + np.sin(x2))
        u = biot_savart(VorticityGrid(g.values - g.values.mean()))
        pts = random_points(27, n=50)
        out = interpolate_velocity(u, pts)
        assert out.shape == (50, 2)
        assert np.array_equal(out[:, 0], interpolate(u[0], pts, method="cubic"))
        # u = (cos x₂, sin x₁) is the Biot-Savart field of cos x₁ + sin x₂
        exact = np.stack([np.cos(pts[:, 1]), np.sin(pts[:, 0])], axis=-1)
        assert np.abs(out - exact).max() <= 1e-6

    # interpolate_velocity is the cubic method of interpolate, componentwise
    @pytest.mark.parametrize("method", ["cubic"])
    @pytest.mark.parametrize("shape", [(30, 2), (3, 7, 2)])
    def test_velocity_interpolation_is_componentwise_bitwise(self, method, shape):
        rng = np.random.default_rng(28)
        u = rng.standard_normal((2, 16, 16))
        pts = rng.uniform(-1.0, 7.0, shape)
        out = interpolate_velocity(u, pts)
        assert out.shape == shape
        for a in range(2):
            assert np.array_equal(out[..., a], interpolate(u[a], pts, method=method))

    def test_velocity_interpolation_rejects_bad_points(self):
        with pytest.raises(GridError):
            interpolate_velocity(np.zeros((2, 8, 8)), np.zeros((4, 3)))

    def test_unknown_method_rejected(self):
        with pytest.raises(GridError):
            interpolate(VorticityGrid.zeros(8), [[0.0, 0.0]], method="nearest")

    def test_cubic_rejects_odd_grid(self):
        with pytest.raises(GridError, match=r"\(5, 5\)"):
            interpolate(np.zeros((5, 5)), [[0.0, 0.0]], method="cubic")

    @pytest.mark.parametrize("N", [4, 8, 32, 64])
    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_upsample_matches_complex_reference(self, N, r):
        values = np.random.default_rng(10 * N + r).standard_normal((N, N))
        assert np.abs(np.fft.fft2(values)[N // 2]).max() > 0.1  # Nyquist content
        fine = _padded_upsample(values, r)[1:-3, 1:-3]
        expect = spectral_upsample_complex(values, r)
        assert fine.shape == (N * r, N * r)
        assert np.abs(fine - expect).max() <= 1e-14 * np.abs(expect).max()
        assert np.allclose(fine[::r, ::r], values, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("N", [8, 16, 64])
    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_pruned_upsample_matches_irfft2_reference_bitwise(self, N, r):
        rng = np.random.default_rng(100 * N + r)
        first, second = rng.standard_normal((2, N, N))
        want = [padded_upsample_by_irfft2(v, r) for v in (first, second)]
        assert _padded_upsample(first, r).tobytes() == want[0].tobytes()
        # two fields pushed through one set of buffers: nothing of the
        # first (or of the buffers' old contents) is left in the second
        out = np.full((N * r + 4, N * r + 4), np.nan)
        work = _upsample_work(first.shape, r)
        for v, expect in zip((first, second), want):
            assert _padded_upsample(v, r, out, work) is out
            assert out.tobytes() == expect.tobytes()
        # a stack of grids is upsampled grid by grid
        both = _padded_upsample(np.stack([first, second]), r)
        assert both.tobytes() == np.stack(want).tobytes()

    def test_upsample_rejects_a_buffer_of_another_shape(self):
        with pytest.raises(GridError, match="padded buffer"):
            _padded_upsample(np.zeros((8, 8)), 4, np.empty((32, 32)))

    @pytest.mark.parametrize("N", [8, 16, 64])
    @pytest.mark.parametrize("r", [1, 4])
    def test_cubic_gather_matches_modulo_reference_bitwise(self, N, r):
        rng = np.random.default_rng(N + r)
        values = [rng.standard_normal((N, N)) for _ in range(2)]
        h = TWO_PI / (N * r)
        # ends of the period, cell edges and points just either side of them
        special = np.array([0.0, h, 3 * h, np.nextafter(h, 0.0), np.nextafter(h, 1.0),
                            np.nextafter(TWO_PI, 0.0), TWO_PI - h / 2])
        edges = np.stack(np.meshgrid(special, special), axis=-1).reshape(-1, 2)
        pts = np.vstack([random_points(N * r, 500), edges,
                         np.array([[-1e-20, 1.0], [1.0, -1e-300]]) % TWO_PI])
        g = pts * ((N * r) / TWO_PI)
        assert np.floor(g).max() == N * r  # some point rounds onto 2π
        got = _interp_cubic([_padded_upsample(c, r) for c in values], pts)
        want = cubic_by_modulo_gather(values, pts, r)
        assert got.shape == (2, pts.shape[0])
        assert got.tobytes() == want.tobytes()


def particle_lattice(refinement, N, offset=0.0):
    hp = TWO_PI / (refinement * N)
    q = np.arange(refinement * N) * hp + offset * hp
    Q1, Q2 = np.meshgrid(q, q, indexing="ij")
    return np.stack([Q1.ravel(), Q2.ravel()], axis=-1)


class TestDeposit:
    def test_uniform_lattice_reproduces_constants(self):
        # partition of unity holds for any lattice offset, not just aligned
        for offset in (0.0, 0.37):
            pts = particle_lattice(3, 16, offset)
            d = deposit(pts, np.ones(len(pts)), 16)
            assert np.allclose(d.values, 1.0, atol=1e-13)

    def test_mean_equals_particle_mean(self):
        rng = np.random.default_rng(31)
        pts = rng.uniform(0.0, TWO_PI, size=(4 * 16 * 16, 2))
        w = rng.standard_normal(len(pts))
        d = deposit(pts, w, 16)
        assert d.mean == pytest.approx(w.mean(), abs=1e-13)

    def test_identity_flow_is_second_order(self):
        def fn(x1, x2):
            return np.cos(x1) + np.sin(2 * x2) + 0.5 * np.cos(3 * x1 + x2)

        errs = []
        for N in (32, 64):
            pts = particle_lattice(4, N)
            dep = deposit(pts, fn(pts[:, 0], pts[:, 1]), N)
            errs.append((dep - VorticityGrid.from_function(N, fn)).l1())
        assert errs[0] / errs[1] > 3.2  # measured 3.97; order two
        assert errs[1] < 0.15

    def test_undersampling_guard(self):
        pts = particle_lattice(1, 8)  # 64 particles
        with pytest.raises(UndersamplingError):
            deposit(pts, np.ones(len(pts)), 16)

    def test_scalar_weight_broadcast(self):
        pts = particle_lattice(2, 8)
        d = deposit(pts, 1.0, 8)
        assert np.allclose(d.values, 1.0, atol=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_mass_conservation_property(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, TWO_PI, size=(20, 2))
        w = rng.uniform(-3.0, 3.0, size=20)
        d = deposit(pts, w, 4)
        assert d.mean == pytest.approx(w.mean(), abs=1e-12)


# the edges of _mod_two_pi's ranges, their float neighbours, signed zeros,
# the smallest magnitudes and the non-finite values that force np.mod
_EDGES = [s * m * TWO_PI for s in (1.0, -1.0) for m in (0.0, 1.0, 2.0, 3.0)]
TORUS_SPECIALS = sorted({v for e in _EDGES for v in
                         (e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf))}
                        | {5e-324, -5e-324, 1e-300, -1e-300, math.pi}) \
    + [-0.0, math.nan, math.inf, -math.inf]


@st.composite
def torus_arrays(draw):
    """Float arrays within [0, 2π), [−2π, 4π) or ±3·2π (one range per
    array, so every branch of _mod_two_pi runs), mixed with the specials."""
    lo, hi = draw(st.sampled_from([(0.0, TWO_PI), (-TWO_PI, 2 * TWO_PI),
                                   (-3 * TWO_PI, 3 * TWO_PI)]))
    element = st.floats(lo, hi, exclude_max=True) | st.sampled_from(
        [v for v in TORUS_SPECIALS if lo <= v < hi] or [lo])
    values = draw(st.lists(element, max_size=16))
    if draw(st.booleans()):
        values.append(draw(st.sampled_from(TORUS_SPECIALS)))
    return np.array(values, dtype=float)


def wrap_by_mod(x):
    out = np.mod(x, TWO_PI)
    out[out >= TWO_PI] = 0.0
    return out


class TestTorusReduction:
    @settings(max_examples=300, deadline=None)
    @given(torus_arrays())
    @example(np.array([], dtype=float))
    @example(np.array(TORUS_SPECIALS))
    @example(np.array([-0.0, 0.0, np.nextafter(TWO_PI, 0.0), -1e-300]))
    def test_mod_two_pi_equals_remainder_bitwise(self, x):
        with np.errstate(invalid="ignore"):
            want = x % TWO_PI
            got = _mod_two_pi(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(torus_arrays())
    @example(np.array([], dtype=float))
    @example(np.array(TORUS_SPECIALS))
    def test_wrap_and_nearest_image_equal_their_mod_forms_bitwise(self, x):
        with np.errstate(invalid="ignore"):
            assert _wrap(x).tobytes() == wrap_by_mod(x).tobytes()
            want = (x + math.pi) % TWO_PI - math.pi
            assert _nearest_image(x).tobytes() == want.tobytes()

    def test_np_mod_runs_only_outside_the_fast_ranges(self, monkeypatch):
        def no_mod(*args, **kwargs):
            raise AssertionError("np.mod called")

        monkeypatch.setattr(np, "mod", no_mod)
        for x in ([0.0, -0.0, np.nextafter(TWO_PI, 0.0)],
                  [-TWO_PI, -1e-300, np.nextafter(2 * TWO_PI, 0.0)]):
            x = np.array(x)
            # a fresh array, never the input: _wrap writes into it
            assert _mod_two_pi(x) is not x
        for x in ([2 * TWO_PI], [-7.0], [math.nan], [1.0, math.inf]):
            with pytest.raises(AssertionError, match="np.mod called"):
                _mod_two_pi(np.array(x))


class TestDepositKernel:
    @staticmethod
    def edge_points(N):
        # coordinates on nodes, just below 2π (g rounds onto N), tiny
        # negatives (the remainder rounds onto 2π) and far outside [0, 2π)
        h = TWO_PI / N
        c = np.array([0.0, -0.0, h, np.nextafter(h, 0.0), np.nextafter(TWO_PI, 0.0),
                      -1e-300, -1e-17, TWO_PI, -TWO_PI, 3.5 * TWO_PI, -7.25])
        return np.stack(np.meshgrid(c, c), axis=-1).reshape(-1, 2)

    @pytest.mark.parametrize("N", [4, 16, 64])
    def test_deposit_equals_modulo_reference_bitwise(self, N):
        rng = np.random.default_rng(N)
        pts = np.vstack([rng.uniform(-TWO_PI, 2 * TWO_PI, size=(4 * N * N, 2)),
                         self.edge_points(N)])
        w = rng.standard_normal(len(pts))
        assert np.floor(np.mod(pts, TWO_PI) * (N / TWO_PI)).max() == N
        got = deposit(pts, w, N).values
        assert got.tobytes() == deposit_by_modulo(pts, w, N).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([4, 8, 16]),
           st.sampled_from([1.0, 3.0]))
    def test_deposit_equals_modulo_reference_property(self, seed, N, spread):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-spread * TWO_PI, spread * TWO_PI, size=(N * N + 7, 2))
        w = rng.uniform(-3.0, 3.0, size=len(pts))
        got = deposit(pts, w, N).values
        assert got.tobytes() == deposit_by_modulo(pts, w, N).tobytes()


class TestFieldSerialization:
    def test_modes_builder_and_alias_guard(self):
        g = vorticity_from_modes([(1, 0, 0.5), (2, 1, 0.3, 1.2)], 32)
        x = np.linspace(0.0, TWO_PI, 32, endpoint=False)
        X, Y = np.meshgrid(x, x, indexing="ij")
        expected = 0.5 * np.cos(X) + 0.3 * np.cos(2 * X + Y + 1.2)
        assert np.abs(g.values - expected).max() < 1e-13
        with pytest.raises(GridError):
            vorticity_from_modes([(8, 0, 1.0)], 16)

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_round_trip_bit_exact(self, tmp_path, fmt):
        rng = np.random.default_rng(12)
        g = VorticityGrid(rng.normal(size=(16, 16)))
        path = tmp_path / ("grid." + fmt)
        if fmt == "csv":
            save_field_csv(g, path)
            back = load_field_csv(path)
        else:
            save_field_binary(g, path)
            back = load_field_binary(path)
        assert np.array_equal(back.values, g.values)

    def test_csv_rejects_ragged_input(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,value\n0,0,1.0\n0,1,2.0\n")  # 2 of 4 nodes only
        with pytest.raises(GridError):
            load_field_csv(path)

    @pytest.mark.parametrize("bad_row", ["-1,-1,5.0", "4,0,5.0", "1.5,0,5.0"])
    def test_csv_rejects_node_indices_off_the_grid(self, tmp_path, bad_row):
        # a 4×4 file whose last row names a node outside [0, 4)² (or between nodes)
        rows = [f"{i},{j},1.0" for i in range(4) for j in range(4)][:-1] + [bad_row]
        path = tmp_path / "bad.csv"
        path.write_text("i,j,value\n" + "\n".join(rows) + "\n")
        with pytest.raises(GridError, match="not an integer pair"):
            load_field_csv(path)

    def test_binary_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not a grid at all")
        with pytest.raises(GridError):
            load_field_binary(path)

    def test_csv_rejects_non_numeric_cell(self, tmp_path):
        # numpy's ValueError once escaped, so the CLI printed a traceback
        path = tmp_path / "bad.csv"
        path.write_text("i,j,value\n0,0,1.0\n0,1,abc\n1,0,1.0\n1,1,1.0\n")
        with pytest.raises(GridError, match="malformed grid CSV"):
            load_field_csv(path)

    @pytest.mark.parametrize("load, header", [
        (load_field_csv, "i,j,value"),
        (load_particles_csv, "t,id,x1,x2,weight"),
        (load_rough_path_csv, "# p_exponent=2.5\nt,Z_1,A_11"),
    ], ids=["field", "particles", "rough_path"])
    def test_csv_loaders_reject_header_only_files(self, tmp_path, load, header):
        # once numpy's "input contained no data" warning and a column-count
        # error that blamed the wrong thing
        path = tmp_path / "empty.csv"
        path.write_text(header + "\n")
        with pytest.raises(GridError, match="empty.csv has no data rows"):
            load(str(path))
        path.write_text("")
        with pytest.raises(GridError):
            load(str(path))

    @pytest.mark.parametrize("load, magic", [
        (load_field_binary, b"RFGB"),
        (load_particles_binary, b"RFPB"),
    ], ids=["field", "particles"])
    def test_binary_loaders_reject_truncated_headers(self, tmp_path, load, magic):
        # a short header once raised struct.error
        path = tmp_path / "short.bin"
        path.write_bytes(magic + b"\x01\x00\x00")
        with pytest.raises(GridError, match="truncated .* header: 3 of"):
            load(str(path))

    @pytest.mark.parametrize("row", [(1, 0), (1, 0, 1.0, 0.0, 2.0), (1.5, 0, 1.0),
                                     ("1", 0, 1.0), (1, 0, float("nan")), 7],
                             ids=["short", "long", "fractional_k", "string",
                                  "nan", "scalar"])
    def test_modes_reject_malformed_rows(self, row):
        with pytest.raises(GridError, match="mode row 1"):
            vorticity_from_modes([(1, 0, 1.0), row], 16)
