"""Tests for controls, p-variation dynamic programs, and the Gronwall bound."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughflow import (
    Control,
    ControlError,
    GridError,
    HypothesisError,
    InfeasibleLocalizationError,
    Localization,
    localized_p_variation,
    p_variation,
    rough_gronwall_bound,
)
from roughflow.variation import (
    _all_windows_dp,
    _cell_powers,
    _Columns,
    _norms_from_increments,
    _partition_dp,
    _walk_partition,
)
from reference import (
    all_windows_dp_by_rows,
    increment_norms,
    norms_from_values,
    pvar_by_enumeration,
)


# ---------------------------------------------------------------------------
# plain p-variation
# ---------------------------------------------------------------------------

def test_zigzag_square_variation():
    # four unit swings: every swing must be its own cell
    assert p_variation([0.0, 1.0, 0.0, 1.0, 0.0], p=2.0) == 4.0


def test_monotone_path_single_cell():
    # for monotone data the single cell [0, T] dominates every refinement
    assert p_variation([0.0, 0.2, 0.7, 1.0], p=2.0) == pytest.approx(1.0, abs=0)


def test_pvariation_argmax_partition():
    value, nodes = p_variation([0.0, 1.0, 0.0, 1.0, 0.0], p=2.0, return_partition=True)
    assert value == 4.0
    assert nodes == [0, 1, 2, 3, 4]


def test_pvariation_rejects_bad_inputs():
    with pytest.raises(HypothesisError):
        p_variation([0.0, 1.0], p=0.5)
    with pytest.raises(GridError):
        p_variation(np.empty((0, 2)), p=2.0)
    with pytest.raises(GridError):
        p_variation()  # neither values nor increments


def test_single_sample_has_zero_variation():
    assert p_variation([3.7], p=2.0) == 0.0


def test_vector_valued_path_uses_euclidean_norm():
    path = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]])
    # |increment| = 5 each way
    assert p_variation(path, p=2.0) == pytest.approx(50.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-10, 10, allow_nan=False, width=32), min_size=2, max_size=10),
    st.sampled_from([1.0, 1.5, 2.0, 2.7, 3.0]),
)
def test_dp_matches_enumeration(samples, p):
    values = np.asarray(samples, dtype=float)
    got = p_variation(values, p=p)
    want, _ = pvar_by_enumeration(increment_norms(values=values), p)
    # identical float arithmetic per partition, so the maxima agree exactly
    assert got == want


# ---------------------------------------------------------------------------
# localized p-variation
# ---------------------------------------------------------------------------

def _interval_loc(times, exponent, L, scale=1.0):
    return Localization(Control.interval_power(times, exponent, scale), L)


def test_generous_threshold_recovers_unrestricted():
    rng = np.random.default_rng(7)
    times = np.linspace(0.0, 1.0, 12)
    values = rng.standard_normal(12).cumsum()
    loc = _interval_loc(times, exponent=2.0, L=2.0)  # ω̄(0,T)=1 ≤ L
    assert localized_p_variation(values, 2.0, loc) == p_variation(values, 2.0)


def test_infeasible_threshold_reports_offending_step():
    times = np.array([0.0, 0.5, 1.0])
    loc = _interval_loc(times, exponent=1.0, L=0.25)
    with pytest.raises(InfeasibleLocalizationError) as exc:
        localized_p_variation([0.0, 1.0, 2.0], 2.0, loc)
    assert exc.value.step == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-5, 5, allow_nan=False, width=32), min_size=3, max_size=9),
    st.floats(0.15, 1.0),
)
@example(samples=[0.0] * 6, L=0.2)  # linspace makes one step 0.2 + 1 ulp
def test_localized_dp_matches_constrained_enumeration(samples, L):
    values = np.asarray(samples, dtype=float)
    n = values.size - 1
    times = np.linspace(0.0, 1.0, values.size)
    if np.diff(times).max() > L:  # keep instances feasible
        L = 1.5 / n
    loc = _interval_loc(times, exponent=1.0, L=L)
    got = localized_p_variation(values, 2.0, loc)
    want, _ = pvar_by_enumeration(increment_norms(values=values), 2.0, mask=loc.mask(times))
    assert got == want


def test_halving_threshold_costs_at_most_two_to_p_minus_one():
    # additive increments: an admissible cell [s,t] splits at the last node u
    # with ω̄(s,u) ≤ L/2, and superadditivity leaves ω̄(u,t) ≤ L/2 + (one grid
    # step); so ‖g‖^p_{(ω̄,L)} ≤ 2^{p-1} ‖g‖^p_{(ω̄, L/2 + step)}, which is the
    # grid-exact form of the continuum halving inequality.
    rng = np.random.default_rng(21)
    n = 512
    times = np.linspace(0.0, 1.0, n + 1)
    values = np.concatenate([[0.0], rng.standard_normal(n).cumsum()]) / math.sqrt(n)
    p = 2.5
    control = Control.interval_power(times, exponent=1.0)
    step_slack = float(np.max(control(times[:-1], times[1:])))
    for L in (0.5, 0.25):
        full = localized_p_variation(values, p, Localization(control, L))
        half = localized_p_variation(values, p, Localization(control, L / 2 + step_slack))
        assert full <= 2 ** (p - 1) * half * (1.0 + 1e-12)


def test_localized_variation_vanishes_with_threshold_for_larger_exponent():
    # for q > p the localized q-variation is ≤ (max admissible |g|)^{q-p} ‖g‖_p^p,
    # which decays like L^{(q-p)/p}; check monotone decay plus that bound
    rng = np.random.default_rng(3)
    n = 1024
    times = np.linspace(0.0, 1.0, n + 1)
    values = np.concatenate([[0.0], rng.standard_normal(n).cumsum()]) / math.sqrt(n)
    control = Control.interval_power(times, exponent=1.0)
    p, q = 2.0, 4.0
    pvar = p_variation(values, p)
    norms = increment_norms(values=values)
    vals = []
    for L in (0.25, 0.125, 0.0625, 0.03125):
        loc = Localization(control, L)
        val = localized_p_variation(values, q, loc)
        vals.append(val)
        max_adm = float(norms[loc.mask(times)].max())
        assert val <= max_adm ** (q - p) * pvar * (1 + 1e-12)
    assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.6 * vals[0]


# ---------------------------------------------------------------------------
# controls and best controls
# ---------------------------------------------------------------------------

def test_interval_power_below_one_rejected():
    with pytest.raises(ControlError):
        Control.interval_power([0.0, 1.0], exponent=0.8)


def test_control_sum_and_scale_pass_checks():
    times = np.linspace(0.0, 2.0, 9)
    ctrl = Control.interval_power(times, 1.5) + 3.0 * Control.interval_power(times, 2.0)
    ctrl.check()
    assert ctrl.kind == "sum"
    with pytest.raises(ControlError):
        (-1.0) * ctrl


@pytest.mark.parametrize("times", [[0.0, 0.5, math.inf], [-math.inf, 0.0, 1.0],
                                   [math.inf], [0.0, math.nan, 1.0]])
def test_time_grid_must_be_finite(times):
    # [0, 0.5, inf] has positive differences; finiteness is its own check
    with pytest.raises(GridError, match="strictly increasing and finite"):
        Control.from_table(times, np.zeros((len(times), len(times))))


def test_table_control_rejects_off_grid_queries():
    times = np.array([0.0, 1.0, 2.0])
    ctrl = Control.from_table(times, np.zeros((3, 3)))
    with pytest.raises(GridError):
        ctrl(0.0, 1.37)


def test_non_superadditive_table_fails_check():
    times = np.array([0.0, 1.0, 2.0])
    table = np.zeros((3, 3))
    table[0, 1] = table[1, 2] = 1.0
    table[0, 2] = 1.5  # violates ω(0,1)+ω(1,2) ≤ ω(0,2)
    with pytest.raises(ControlError):
        Control.from_table(times, table).check()


# ---------------------------------------------------------------------------
# the one partition DP against the per-row reference
# ---------------------------------------------------------------------------

def _dp_instance(seed, m, mask_kind):
    """Random two-index increments and an admissibility mask of one kind."""
    rng = np.random.default_rng(seed)
    increments = rng.standard_normal((m, m, 1)) * rng.uniform(0.1, 10.0)
    if mask_kind == "none":
        return increments, None
    if mask_kind == "banded":  # cells of at most `band` steps
        idx = np.arange(m)
        mask = idx[None, :] - idx[:, None] <= rng.integers(1, m)
    else:
        mask = rng.random((m, m)) < 0.6
        mask[np.arange(m - 1), np.arange(1, m)] = True
        if mask_kind == "infeasible-windows":  # windows across step k get -inf
            k = rng.integers(m - 1)
            mask[k, k + 1] = False
        if mask_kind == "empty-columns":  # no cell at all ends at these nodes
            mask[:, rng.choice(np.arange(1, m), size=1 + m // 6, replace=False)] = False
    return increments, mask


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2 ** 32 - 1),
    st.integers(2, 14),
    st.sampled_from(["none", "banded", "random", "infeasible-windows"]),
    st.sampled_from([0.5, 1.0, 2.2, 3.0]),
)
def test_all_windows_dp_matches_per_row_reference(seed, m, mask_kind, p):
    increments, mask = _dp_instance(seed, m, mask_kind)
    norms_pow = _norms_from_increments(increments) ** p
    if mask is None:
        got = _all_windows_dp(norms_pow)
    else:
        got = np.triu(_partition_dp(norms_pow, mask, m)[0], 1)
    want = all_windows_dp_by_rows(norms_pow, mask)
    assert got.tobytes() == want.tobytes()

    # row 0 of the all-windows pass is the p-variation DP of the whole path
    V, pred = _partition_dp(norms_pow, mask, m)
    times = np.linspace(0.0, 1.0, m)
    if mask is None:
        if p >= 1:
            value, nodes = p_variation(increments=increments, p=p, return_partition=True)
            assert (value, nodes) == (V[0, -1], _walk_partition(pred[0], m - 1))
        return
    # a table control whose admissibility table on ``times`` is ``mask``
    loc = Localization(Control.from_table(times, np.where(mask, 0.0, 2.0)), 1.0)
    steps_ok = np.diagonal(mask, offset=1)
    if not steps_ok.all():
        with pytest.raises(InfeasibleLocalizationError) as exc:
            localized_p_variation(increments=increments, p=p, loc=loc)
        assert exc.value.step == int(np.argmin(steps_ok))
        return
    value, nodes = localized_p_variation(increments=increments, p=p, loc=loc,
                                         return_partition=True)
    assert (value, nodes) == (V[0, -1], _walk_partition(pred[0], m - 1))


# ---------------------------------------------------------------------------
# streamed values path: equal to the dense tables, memory linear in the rows
# ---------------------------------------------------------------------------

def _random_walk(rows, d, seed=5):
    rng = np.random.default_rng(seed)
    path = rng.standard_normal((rows, d)).cumsum(axis=0) / math.sqrt(rows)
    return path[:, 0] if d == 1 else path


def _streaming_loc(times, kind):
    if kind == "interval_power":
        return Localization(Control.interval_power(times, 1.0), 0.2)
    table = np.triu(times[None, :] - times[:, None], 1) ** 1.5
    return Localization(Control.from_table(times, table), 0.05)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("p", [0.7, 2.0, 2.5])
def test_streamed_columns_equal_dense_table_bitwise(d, p):
    values = _random_walk(40, d)
    dense = norms_from_values(values) ** p
    cells = _cell_powers(values, None, p)
    assert cells.shape == dense.shape
    for j in range(1, 40):
        assert cells[:j, j].tobytes() == dense[:j, j].tobytes()


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("p", [0.7, 2.0, 2.5])
@pytest.mark.parametrize("kind", ["interval_power", "from_table"])
def test_streamed_localized_path_equals_dense_path(d, p, kind):
    values = _random_walk(33, d)
    times = np.linspace(0.0, 1.0, 33)
    loc = _streaming_loc(times, kind)
    dense = norms_from_values(values) ** p
    mask = loc.mask(times)
    assert 32 < np.triu(mask, 1).sum() < 33 * 32 // 2  # some cells are cut

    V, pred = _partition_dp(dense, mask, 1)
    value, nodes = localized_p_variation(values, p, loc, return_partition=True)
    assert (value, nodes) == (V[0, -1], _walk_partition(pred[0], 32))


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("p", [2.0, 2.5])
def test_streamed_plain_path_equals_dense_path(d, p):
    values = _random_walk(33, d)
    dense = norms_from_values(values) ** p

    V, pred = _partition_dp(dense, None, 1)
    value, nodes = p_variation(values, p, return_partition=True)
    assert (value, nodes) == (V[0, -1], _walk_partition(pred[0], 32))


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("p, localized", [(0.7, True), (2.0, False), (2.0, True),
                                          (2.5, False), (2.5, True)])
def test_streamed_path_matches_enumeration(d, p, localized):
    values = _random_walk(12, d, seed=int(10 * p) + d)
    times = np.linspace(0.0, 1.0, 12)
    # below three entries the reference norms are the library's bit for bit;
    # above, the enumeration gets the dense library norms and checks the search
    norms = increment_norms(values=values) if d < 3 else norms_from_values(values)
    if localized:
        loc = _interval_loc(times, exponent=1.0, L=0.35)
        got = localized_p_variation(values, p, loc, return_partition=True)
        want = pvar_by_enumeration(norms, p, mask=loc.mask(times))
    else:
        got = p_variation(values, p, return_partition=True)
        want = pvar_by_enumeration(norms, p)
    assert got == want


# ---------------------------------------------------------------------------
# candidates that can win: turning nodes of scalar paths, admissible rows
# ---------------------------------------------------------------------------

@st.composite
def turning_walks(draw, d):
    """Walks built from plateaus, long monotone runs and noise on an integer
    lattice (so values repeat), scaled; ``d = 2`` adds a second coordinate."""
    steps = []
    for kind, length, size in draw(st.lists(st.tuples(
            st.sampled_from(["flat", "up", "down", "noise"]), st.integers(1, 12),
            st.integers(1, 3)), min_size=1, max_size=6)):
        if kind == "noise":
            steps += draw(st.lists(st.integers(-2, 2), min_size=length, max_size=length))
        else:
            steps += [{"flat": 0, "up": size, "down": -size}[kind]] * length
    scale = draw(st.sampled_from([1.0, 0.1, 7.3, 1e-3]))
    start = draw(st.sampled_from([0.0, 1.0, -3.5]))
    x = start + scale * np.concatenate([[0], np.cumsum(steps)])
    if d == 1:
        return x
    y = draw(st.lists(st.integers(-1, 1), min_size=x.size, max_size=x.size))
    return np.stack([x, scale * np.cumsum(y)], axis=-1)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(turning_walks),
       st.sampled_from([1.0, 1.2, 2.0, 2.5, 3.0]))
@example(values=np.array([0.0, 1.0, 1.0, 0.0]), p=2.0)  # a plateau is an extremum
# at p = 1 the full DP ends on a node inside the run -0.1 → -0.3, because
# 0.1 + 0.2 + 0.2 rounds above 0.1 + 0.4: no node may be dropped there
@example(values=np.array([0.0, 0.1, -0.1, -0.3]), p=1.0)
def test_pruned_p_variation_equals_full_dp(values, p):
    # scalar paths with p > 1 reach the DP with their turning nodes only; the
    # value and the first-maximizer partition are those of every node
    V, pred = _partition_dp(norms_from_values(values) ** p, None, 1)
    want = (V[0, -1], _walk_partition(pred[0], len(values) - 1))
    assert p_variation(values, p, return_partition=True) == want


@settings(max_examples=100, deadline=None)
@given(turning_walks(1), st.sampled_from([1.2, 2.0, 2.5, 3.0]), st.integers(1, 6))
def test_localized_scalar_path_keeps_every_node(values, p, band):
    # a localization can make a node inside a monotone run the only way to
    # keep cells admissible, so no turning-node pruning applies; cells span
    # at most ``band`` steps of the unit grid
    times = np.arange(values.size, dtype=float)
    loc = _interval_loc(times, exponent=1.0, L=float(band))
    V, pred = _partition_dp(norms_from_values(values) ** p, loc.mask(times), 1)
    want = (V[0, -1], _walk_partition(pred[0], values.size - 1))
    assert localized_p_variation(values, p, loc, return_partition=True) == want


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2 ** 32 - 1),
    st.integers(3, 14),
    st.sampled_from(["banded", "random", "infeasible-windows", "empty-columns"]),
    st.sampled_from([0.5, 1.0, 2.2, 3.0]),
)
def test_masked_dp_reads_only_admissible_rows(seed, m, mask_kind, p):
    # admissible rows need not form a suffix, and a column may have none
    increments, mask = _dp_instance(seed, m, mask_kind)
    norms_pow = _norms_from_increments(increments) ** p
    read = []

    def column(rows, j):
        read.append((j, np.arange(m)[rows]))
        return norms_pow[rows, j]

    got = np.triu(_partition_dp(_Columns(m, column), mask, m)[0], 1)
    assert got.tobytes() == all_windows_dp_by_rows(norms_pow, mask).tobytes()
    for j, rows in read:
        assert np.array_equal(rows, np.flatnonzero(mask[:j, j]))
    assert {j for j, _ in read} == {j for j in range(1, m) if mask[:j, j].any()}


@pytest.mark.parametrize("localized", [False, True])
def test_values_path_memory_is_linear_in_rows(localized):
    n = 4000
    values = _random_walk(n, 1, seed=0)
    loc = _interval_loc(np.linspace(0.0, 1.0, n), exponent=1.0, L=0.05)
    tracemalloc.start()
    try:
        if localized:
            localized_p_variation(values, 2.5, loc, return_partition=True)
        else:
            p_variation(values, 2.5, return_partition=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one dense (n+1)² float table alone would be 128 MB
    assert peak < 8 * 2 ** 20


NON_FINITE_CALLS = {
    "p_variation": lambda v, t: p_variation(v, 2.0, return_partition=True),
    "localized_p_variation": lambda v, t: localized_p_variation(
        v, 2.0, _interval_loc(t, exponent=1.0, L=1.0), return_partition=True),
}


@pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
@pytest.mark.parametrize("values, row", [
    ([0.0, math.nan, 1.0, 0.5], 1),
    ([[0.0, 0.0], [1.0, 2.0], [0.5, math.inf], [-math.inf, 1.0]], 2),
])
def test_non_finite_sample_is_a_grid_error(call, values, row):
    times = np.linspace(0.0, 1.0, len(values))
    with pytest.raises(GridError, match=rf"sample row {row} is not finite"):
        NON_FINITE_CALLS[call](values, times)


# ---------------------------------------------------------------------------
# rough Gronwall bound
# ---------------------------------------------------------------------------

def test_gronwall_bound_with_vanishing_controls():
    times = np.linspace(0.0, 1.0, 5)
    zero = Control.zero(times)
    bound = rough_gronwall_bound(0.3, zero, zero, zero, L=1.0, C=1.0, k=2.0,
                                 k_prime=1.0, C_prime=0.7)
    assert bound == pytest.approx(2.0 * (0.3 + 0.7))


def test_gronwall_bound_past_float_range_is_inf_without_warning():
    # ω₁(0,T)/(αL) is about 1.1e5, far past log(max float): the bound is inf,
    # and no overflow warning escapes (warnings are errors in this suite)
    w1 = Control.interval_power(np.linspace(0.0, 1.0, 50), 1.0, 500.0)
    assert rough_gronwall_bound(1.0, w1, L=0.46, C=1.0, k=2.0, k_prime=1.0) == math.inf
    # with nothing to grow (G0 = C' = 0, no ω₂ or ω₃) the bound is 0, not inf · 0
    assert rough_gronwall_bound(0.0, w1, L=0.46, C=1.0, k=2.0, k_prime=1.0) == 0.0


def test_gronwall_alpha_matches_closed_form():
    # with ω₂ = ω₃ = 0 the bound is 2·exp(ω₁(0,T)/(αL))·(G0 + C'), so α can be
    # read off; at L=1, C=1, k=2 it equals min(1, (2e²)^{-2}) ≈ 4.579e-3
    times = np.linspace(0.0, 1.0, 3)
    w1 = Control.interval_power(times, 1.0, scale=0.01)
    bound = rough_gronwall_bound(1.0, w1, L=1.0, C=1.0, k=2.0, k_prime=1.0)
    alpha = 0.01 / math.log(bound / 2.0)
    assert alpha == pytest.approx(1.0 / (2.0 * math.e ** 2) ** 2, rel=1e-9)
    assert alpha == pytest.approx(4.579e-3, rel=1e-3)


def test_gronwall_rejects_bad_constants_and_domination():
    times = np.linspace(0.0, 1.0, 4)
    w = Control.interval_power(times, 1.0)
    with pytest.raises(HypothesisError):
        rough_gronwall_bound(0.0, w, L=-1.0, C=1.0, k=2.0, k_prime=1.0)
    with pytest.raises(HypothesisError):
        rough_gronwall_bound(0.0, w, L=1.0, C=1.0, k=1.0, k_prime=2.0)
    # ω₂ = 2·ω₁ violates ω₂ ≤ ω₁
    with pytest.raises(HypothesisError):
        rough_gronwall_bound(0.0, w, 2.0 * w, L=1.0, C=1.0, k=2.0, k_prime=1.0)


def make_gronwall_instance(seed):
    """Synthetic (G, controls, constants) satisfying the increment hypothesis.

    Builds a smooth nonnegative path and shrinks its oscillation until the
    hypothesis holds on every localized grid pair, then returns everything
    needed to evaluate the bound.  Used here and by the acceptance suite.
    """
    rng = np.random.default_rng(seed)
    n = 48
    times = np.linspace(0.0, float(rng.uniform(0.5, 2.0)), n + 1)
    T = times[-1]
    k = float(rng.uniform(1.5, 3.0))
    k_prime = float(rng.uniform(1.0, k))
    C = float(rng.uniform(0.5, 3.0))
    C_prime = float(rng.choice([0.0, 0.2, 1.0]))
    G0 = float(rng.choice([0.0, 0.3, 1.0]))
    L = float(rng.uniform(0.3, 1.5))
    # keep ω₁(0,T)/(αL) ≤ ~400 so the bound stays finite (it is conservative
    # to the point of overflow otherwise — still a bound, but uninformative)
    alpha_L = min(L, (2 * C * np.e ** 2) ** -k)
    exponent1 = float(rng.uniform(1.0, 2.0))
    scale_cap = 400.0 * alpha_L / T ** exponent1
    w1 = Control.interval_power(times, exponent1,
                                scale=float(rng.uniform(0.2, 1.0)) * min(scale_cap, 2.0))
    w2 = float(rng.uniform(0.0, 1.0)) * w1          # guarantees ω₂ ≤ ω₁
    w3 = Control.interval_power(times, float(rng.uniform(1.0, 2.0)),
                                scale=float(rng.uniform(0.0, 0.5)))

    modes = rng.uniform(0.5, 3.0, size=3)
    phases = rng.uniform(0.0, 2 * np.pi, size=3)
    amps = rng.uniform(0.0, 1.0, size=3)
    wiggle = sum(a * (1.0 - np.cos(m * times / T * 2 * np.pi + ph) + 1.0 + np.sin(ph))
                 for a, m, ph in zip(amps, modes, phases))
    wiggle = wiggle - wiggle.min()  # nonnegative deviation from G0

    def hypothesis_holds(G):
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                o1 = w1(times[i], times[j])
                if o1 > L:
                    continue
                lhs = G[j] - G[i]
                rhs = (C * (G[i:j + 1].max() + C_prime) * o1 ** (1.0 / k)
                       + w2(times[i], times[j]) ** (1.0 / k_prime)
                       + w3(times[i], times[j]))
                if lhs > rhs + 1e-12:
                    return False
        return True

    scale = 1.0
    G = G0 + scale * wiggle
    for _ in range(60):
        if hypothesis_holds(G):
            break
        scale *= 0.5
        G = G0 + scale * wiggle
    else:
        raise AssertionError("could not shrink the synthetic path into the hypothesis")
    return dict(G=G, times=times, w1=w1, w2=w2, w3=w3, L=L, C=C, k=k,
                k_prime=k_prime, C_prime=C_prime, G0=float(G[0]))


@pytest.mark.parametrize("seed", range(5))
def test_gronwall_bound_dominates_synthetic_paths(seed):
    inst = make_gronwall_instance(seed)
    bound = rough_gronwall_bound(inst["G0"], inst["w1"], inst["w2"], inst["w3"],
                                 L=inst["L"], C=inst["C"], k=inst["k"],
                                 k_prime=inst["k_prime"], C_prime=inst["C_prime"])
    assert inst["G"].max() <= bound
