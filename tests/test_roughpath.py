"""Tests for level-2 rough paths: lifts, Chen algebra, fBm, reversal, CSV."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughflow import GridError, HypothesisError
from roughflow.roughpath import (
    RoughPath,
    chen_defect,
    difference_variation_control,
    lift_piecewise_linear,
    load_rough_path_csv,
    reverse_rough_path,
    sample_fbm,
    save_rough_path_csv,
    variation_control,
)
from reference import chen_defect_direct, variation_control_table_meshgrid


def brownian_lift(seed, n=128, dims=2, p=2.5, T=1.0):
    times = np.linspace(0.0, T, n + 1)
    vals = sample_fbm(0.5, n, T, dims=dims, seed=seed)
    return lift_piecewise_linear(times, vals, p)


def perturbed_lift(seed, n=64, dims=2):
    """A Chen-consistent but non-geometric lift (generic area bumps).

    Consecutive-segment storage keeps Chen exact for any stored areas; a bump
    with a symmetric part breaks the geometric-symmetry identity.
    """
    rp = brownian_lift(seed, n, dims)
    rng = np.random.default_rng(seed + 1)
    areas = rp.segment_area + rng.standard_normal((n, dims, dims)) * 0.05
    return RoughPath(rp.times, rp.values, areas, rp.p_exponent)


# ---------------------------------------------------------------------------
# canonical lifts and Chen's relation
# ---------------------------------------------------------------------------

def test_linear_time_path_has_half_area():
    times = np.linspace(0.0, 1.0, 11)
    rp = lift_piecewise_linear(times, times)  # Z_t = t
    assert rp.second_level(0.0, 1.0)[0, 0] == pytest.approx(0.5, rel=1e-14)


def test_two_dimensional_diagonal_path_cross_area():
    times = np.linspace(0.0, 1.0, 9)
    vals = np.column_stack([times, times])
    rp = lift_piecewise_linear(times, vals)
    zz = rp.second_level(0.0, 1.0)
    assert zz[0, 1] == pytest.approx(0.5, rel=1e-14)
    assert zz[1, 0] == pytest.approx(0.5, rel=1e-14)


def test_chen_defect_vanishes_on_nodes():
    rp = brownian_lift(seed=5)
    d = chen_defect(rp, rp.times[10], rp.times[60], rp.times[110])
    scale = np.abs(rp.second_level(rp.times[10], rp.times[110])).max()
    assert np.abs(d).max() <= 1e-13 * max(scale, 1.0)


def test_prefix_composition_matches_naive_left_to_right():
    rp = perturbed_lift(seed=2)
    got = rp.pair_second_level(np.array(3), np.array(41))
    acc_z = np.zeros(2)
    acc = np.zeros((2, 2))
    for k in range(3, 41):
        dZ = rp.values[k + 1] - rp.values[k]
        acc = acc + rp.segment_area[k] + np.einsum("a,b->ab", acc_z, dZ)
        acc_z = acc_z + dZ
    np.testing.assert_allclose(got, acc, rtol=0, atol=1e-13 * max(np.abs(acc).max(), 1))
    d = chen_defect_direct(rp.values, rp.segment_area, 3, 17, 41)
    assert np.abs(d).max() < 1e-14


def test_geometric_symmetry_detects_perturbation():
    assert brownian_lift(seed=1).geometric_symmetry_defect() < 1e-14
    assert perturbed_lift(seed=1).geometric_symmetry_defect() > 1e-3


def test_chen_scan_is_clean_even_for_non_geometric_lifts():
    assert perturbed_lift(seed=4).chen_defect_scan(n_triples=128) < 1e-12


# ---------------------------------------------------------------------------
# refinement consistency and off-grid queries
# ---------------------------------------------------------------------------

def test_refinement_consistency():
    # the same piecewise-linear function sampled at two resolutions must give
    # identical window queries (first and second level), on and off grid
    rng = np.random.default_rng(8)
    coarse_t = np.linspace(0.0, 1.0, 17)
    coarse_v = rng.standard_normal((17, 2)).cumsum(axis=0) * 0.3
    fine_t = np.linspace(0.0, 1.0, 129)  # contains the coarse nodes
    fine_v = np.column_stack([np.interp(fine_t, coarse_t, coarse_v[:, d]) for d in (0, 1)])
    rp_c = lift_piecewise_linear(coarse_t, coarse_v)
    rp_f = lift_piecewise_linear(fine_t, fine_v)
    for s, t in [(0.0, 1.0), (0.125, 0.8125), (0.03, 0.97), (0.2501, 0.2502)]:
        zc, ac = rp_c.increment(s, t)
        zf, af = rp_f.increment(s, t)
        np.testing.assert_allclose(zc, zf, atol=1e-13)
        np.testing.assert_allclose(ac, af, atol=1e-13)


def test_restrict_matches_pair_queries():
    rp = brownian_lift(seed=3, n=64)
    sub = rp.times[::8]
    r = rp.restrict(sub)
    np.testing.assert_array_equal(r.values, rp.values[::8])
    np.testing.assert_allclose(r.second_level(sub[1], sub[5]),
                               rp.second_level(sub[1], sub[5]), atol=1e-14)


def test_partial_segment_chen_consistency_for_perturbed_lifts():
    # splitting inside a segment must keep Chen exact even when the stored
    # area is not the canonical one
    rp = perturbed_lift(seed=7, n=8)
    s, u, t = 0.30, 0.33, 0.42  # all interior to segments
    z_su, a_su = rp.increment(s, u)
    z_ut, a_ut = rp.increment(u, t)
    z_st, a_st = rp.increment(s, t)
    np.testing.assert_allclose(z_su + z_ut, z_st, atol=1e-15)
    np.testing.assert_allclose(a_su + a_ut + np.outer(z_su, z_ut), a_st, atol=1e-15)


def test_queries_outside_span_error():
    rp = brownian_lift(seed=0, n=8)
    with pytest.raises(GridError):
        rp.increment(0.0, 1.5)
    with pytest.raises(GridError):
        rp.node_index(0.31)


def test_p_exponent_range_enforced():
    times = np.linspace(0.0, 1.0, 3)
    with pytest.raises(HypothesisError):
        lift_piecewise_linear(times, times, p_exponent=3.2)


# ---------------------------------------------------------------------------
# reversal
# ---------------------------------------------------------------------------

def test_reversal_is_canonical_for_canonical_lifts():
    rp = brownian_lift(seed=11, n=32)
    rev = reverse_rough_path(rp, rp.times[-1])
    relift = lift_piecewise_linear(rev.times, rev.values, rp.p_exponent)
    np.testing.assert_allclose(rev.segment_area, relift.segment_area, atol=1e-15)
    assert rev.geometric_symmetry_defect() < 1e-14


def test_reversal_twice_is_identity():
    rp = perturbed_lift(seed=12, n=24)
    back = reverse_rough_path(reverse_rough_path(rp, rp.times[-1]),
                              rp.times[-1] - rp.times[0])
    np.testing.assert_allclose(back.times, rp.times, atol=1e-15)
    np.testing.assert_allclose(back.values, rp.values, atol=1e-15)
    np.testing.assert_allclose(back.segment_area, rp.segment_area, atol=1e-13)


def test_reversal_at_interior_node_restricts_first():
    rp = brownian_lift(seed=13, n=16)
    t_piv = rp.times[10]
    rev = reverse_rough_path(rp, t_piv)
    assert rev.times[-1] == pytest.approx(t_piv)
    np.testing.assert_allclose(rev.values[0], rp.values[10])
    np.testing.assert_allclose(rev.values[-1], rp.values[0])
    # window [0, t] of the reversed path equals the reversed window identity
    z, a = rev.increment(0.0, t_piv)
    z0, a0 = rp.increment(0.0, t_piv)
    np.testing.assert_allclose(z, -z0, atol=1e-14)
    np.testing.assert_allclose(a, -a0 + np.outer(z0, z0), atol=1e-13)
    assert rev.chen_defect_scan() < 1e-12


# ---------------------------------------------------------------------------
# fBm sampling
# ---------------------------------------------------------------------------

def test_fbm_brownian_increment_variance():
    n = 100_000
    x = sample_fbm(0.5, n, T=1.0, seed=1)[:, 0]
    v = np.diff(x).var() * n
    assert abs(v - 1.0) < 0.05


def test_fbm_terminal_variance_rough_regime():
    H, T = 0.4, 2.0
    s = sample_fbm(H, 32, T, dims=4000, seed=2)
    assert abs(s[-1].var() / T ** (2 * H) - 1.0) < 0.05
    assert abs(s[16].var() / (T / 2) ** (2 * H) - 1.0) < 0.05


def test_fbm_two_point_covariance():
    H = 0.4
    s = sample_fbm(H, 16, T=1.0, dims=20000, seed=3)
    got = float((s[4] * s[12]).mean())
    want = 0.5 * (0.25 ** (2 * H) + 0.75 ** (2 * H) - 0.5 ** (2 * H))
    assert abs(got - want) < 0.02


def test_fbm_deterministic_and_validated():
    a = sample_fbm(0.4, 64, seed=9)
    b = sample_fbm(0.4, 64, seed=9)
    assert np.array_equal(a, b)
    assert a[0, 0] == 0.0
    with pytest.raises(HypothesisError):
        sample_fbm(0.25, 16)
    with pytest.raises(HypothesisError):
        sample_fbm(0.7, 16)


# ---------------------------------------------------------------------------
# variation controls
# ---------------------------------------------------------------------------

def test_variation_control_contract():
    rp = brownian_lift(seed=6, n=64)
    ctrl = variation_control(rp, rp.times[::4])
    ctrl.check()
    assert ctrl.kind == "rough-path-variation"
    # single-step value is |Z|^p + |𝕫|^{p/2} for that segment of the subgrid
    z = rp.first_level(rp.times[0], rp.times[4])
    zz = rp.second_level(rp.times[0], rp.times[4])
    want = (np.linalg.norm(z) ** rp.p_exponent
            + np.linalg.norm(zz) ** (rp.p_exponent / 2))
    assert ctrl(rp.times[0], rp.times[4]) == pytest.approx(want, rel=1e-12)


def test_variation_control_grid_cap():
    rp = brownian_lift(seed=6, n=512)
    with pytest.raises(GridError):
        variation_control(rp)


def random_grid_path(rng, n, dims, perturbed):
    """A lift on a random non-uniform grid, optionally non-geometric."""
    times = np.r_[0.0, np.cumsum(rng.uniform(0.05, 1.0, n))]
    vals = np.cumsum(rng.standard_normal((n + 1, dims)) * 0.3, axis=0)
    rp = lift_piecewise_linear(times, vals, 2.5)
    if perturbed:
        areas = rp.segment_area + rng.standard_normal((n, dims, dims)) * 0.05
        rp = RoughPath(times, vals, areas, 2.5)
    return rp


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dims=st.integers(1, 3),
       perturbed=st.booleans(), on_nodes=st.booleans())
def test_pair_tables_match_per_pair_increments(seed, dims, perturbed, on_nodes):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    rp = random_grid_path(rng, n, dims, perturbed)
    m = int(rng.integers(2, n + 2))
    if on_nodes:
        t = rp.times[np.sort(rng.choice(n + 1, size=m, replace=False))]
    else:
        t = np.unique(rng.uniform(rp.times[0], rp.times[-1], size=m))
    Z, A = rp.pair_tables(t)
    assert Z.shape == (t.size, t.size, dims)
    assert A.shape == (t.size, t.size, dims, dims)
    scale = 1.0 + float(np.abs(rp.values).max()) ** 2
    for i in range(t.size):
        assert not Z[i, :i + 1].any() and not A[i, :i + 1].any()
        for j in range(i + 1, t.size):
            z, a = rp.increment(t[i], t[j])
            np.testing.assert_allclose(Z[i, j], z, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(A[i, j], a, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("seed", range(5))
def test_variation_control_table_matches_meshgrid_bitwise(seed):
    rng = np.random.default_rng(100 + seed)
    rp = random_grid_path(rng, 80, 2, perturbed=seed % 2 == 1)
    t = rp.times[np.sort(rng.choice(81, size=40, replace=False))]
    table = variation_control(rp, t)._table
    assert np.array_equal(table, variation_control_table_meshgrid(rp, t, rp.p_exponent))


def test_difference_control_rejects_mismatched_dims_and_long_grids():
    rp2 = brownian_lift(seed=16, n=16, dims=2)
    rp3 = brownian_lift(seed=16, n=16, dims=3)
    with pytest.raises(GridError, match="equal dimension"):
        difference_variation_control(rp2, rp3, rp2.times)
    long = brownian_lift(seed=16, n=512, dims=2)
    with pytest.raises(GridError, match="at most 400 nodes"):
        difference_variation_control(long, long, long.times)


def test_difference_control_of_identical_paths_vanishes():
    rp = brownian_lift(seed=14, n=32)
    ctrl = difference_variation_control(rp, rp, rp.times[::2])
    assert ctrl(rp.times[0], rp.times[-1]) == 0.0


def test_difference_control_tracks_mesh_refinement():
    vals = sample_fbm(0.5, 256, dims=2, seed=15)
    fine_t = np.linspace(0.0, 1.0, 257)
    fine = lift_piecewise_linear(fine_t, vals)
    coarse = fine.restrict(fine_t[::4])
    coarser = fine.restrict(fine_t[::16])
    grid = fine_t[::16]
    d1 = difference_variation_control(fine, coarse, grid)(0.0, 1.0)
    d2 = difference_variation_control(fine, coarser, grid)(0.0, 1.0)
    assert 0.0 < d1 < d2


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_csv_round_trip_is_exact(tmp_path):
    rp = perturbed_lift(seed=21, n=16)
    path = tmp_path / "driver.csv"
    save_rough_path_csv(rp, str(path))
    header = path.read_text().splitlines()[1]
    assert header == "t,Z_1,Z_2,A_11,A_12,A_21,A_22"
    back = load_rough_path_csv(str(path))
    np.testing.assert_array_equal(back.times, rp.times)
    np.testing.assert_array_equal(back.values, rp.values)
    np.testing.assert_array_equal(back.segment_area, rp.segment_area)
    assert back.p_exponent == rp.p_exponent


def test_csv_loader_rejects_corruption(tmp_path):
    rp = brownian_lift(seed=22, n=8)
    path = tmp_path / "driver.csv"
    save_rough_path_csv(rp, str(path))
    text = path.read_text().replace("0.", "nan", 1)
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    with pytest.raises(GridError):
        load_rough_path_csv(str(bad))
    trunc = tmp_path / "trunc.csv"
    trunc.write_text("\n".join(["t,Z_1", "0.0,0.0", "1.0,1.0"]))
    with pytest.raises(GridError):
        load_rough_path_csv(str(trunc))
