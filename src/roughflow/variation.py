"""Superadditive controls, (localized) p-variation, and the rough Gronwall bound.

Conventions used throughout the package:

* A *control* ``ω`` maps grid pairs ``s <= t`` to nonnegative reals with
  ``ω(t, t) = 0`` and superadditivity ``ω(s, u) + ω(u, t) <= ω(s, t)``.
  Controls carry the time grid they were built on; evaluation at points that
  are not grid nodes is allowed only for analytically defined kinds (interval
  powers, sums/scalings of those) and is a table lookup otherwise.
* ``p_variation`` and friends return the p-th *power* ``‖g‖_p^p`` — the raw
  value of the dynamic program — not its p-th root.  This keeps superadditive
  quantities superadditive and avoids needless root/power round trips.
* All partition suprema are over partitions subordinate to the sample grid.
  One dynamic program computes them all: a Python loop over end nodes ``j``
  updates every requested start row ``i < j`` at once with
  ``V[i, j] = max_k V[i, k] + |g_{t_k, t_j}|^p`` over admissible last cells.
  p-variation asks for start row 0 (O(n²) work, over the turning nodes only
  for a scalar path with p > 1, and over the admissible rows only under a
  localization); the all-windows tables behind the rough-path controls ask
  for every row (O(n³) work, still one loop of n steps).

Increment inputs come in two forms:

* ``values``: one-index samples ``g(t_0), …, g(t_n)`` with shape ``(n+1, ...)``
  (trailing axes are flattened and measured in the Euclidean norm), for which
  increments are ``g(t_j) − g(t_i)``.  The dynamic program reads one column
  ``[:j, j]`` of cell values per end node, so this form is streamed: each
  column (and, under a localization, its admissibility) is built when the
  loop reaches it, and memory is O(n·d) for ``d`` flattened trailing entries;
* ``increments``: a two-index array of shape ``(n+1, n+1, ...)`` whose
  ``[i, j]`` entry is ``g_{t_i, t_j}`` (only ``i < j`` is read) — used for
  genuinely two-index quantities such as remainders.  Its dense norm table
  is built once, O(n²) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ControlError, GridError, HypothesisError, InfeasibleLocalizationError

__all__ = [
    "Control",
    "Localization",
    "p_variation",
    "localized_p_variation",
    "rough_gronwall_bound",
]

#: absolute / relative slack used by superadditivity and feasibility checks
SUPERADDITIVITY_ABS_TOL = 1e-12
SUPERADDITIVITY_REL_TOL = 1e-10

_TIME_MATCH_RTOL = 1e-9

#: log of the largest float: ``np.exp`` is finite up to it and overflows above
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _as_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise GridError("a time grid must be a one-dimensional array with at least one node")
    # an infinite last node passes the difference test ([0, 0.5, inf] has
    # differences [0.5, inf]), so finiteness is checked on its own
    if not np.isfinite(t).all() or (t.size > 1 and not np.all(np.diff(t) > 0)):
        raise GridError("time grid must be strictly increasing and finite")
    return t


def _time_tol(times: np.ndarray) -> float:
    """The one time-matching tolerance of a grid: ``1e-9`` of its span, with
    the span floored at one."""
    return _TIME_MATCH_RTOL * max(times[-1] - times[0], 1.0)


def locate_nodes(times: np.ndarray, query, *, what: str = "time") -> np.ndarray:
    """Map query times onto indices of ``times``, requiring near-exact matches.

    Raises:
        GridError: if any query is farther from every grid node than a
            relative tolerance of the grid span.
    """
    q = np.atleast_1d(np.asarray(query, dtype=float))
    idx = np.clip(np.searchsorted(times, q), 0, times.size - 1)
    left = np.clip(idx - 1, 0, times.size - 1)
    use_left = np.abs(times[left] - q) < np.abs(times[idx] - q)
    idx = np.where(use_left, left, idx)
    bad = np.abs(times[idx] - q) > _time_tol(times)
    if np.any(bad):
        raise GridError(f"{what} {q[bad][0]!r} is not a node of the grid")
    return idx


def _store_indices(step_times: np.ndarray, store_times) -> set[int]:
    """Snapshot indices: ``None`` keeps both ends of ``step_times``,
    ``"steps"`` every node, an increasing array of step nodes its members."""
    if store_times is None:
        return {0, step_times.size - 1}
    if isinstance(store_times, str) and store_times == "steps":
        return set(range(step_times.size))
    return {int(i) for i in locate_nodes(step_times, _as_times(store_times),
                                         what="store time")}


def _thin_indices(n: int, cap: int) -> np.ndarray:
    """At most ``cap`` evenly strided indices into ``n`` nodes, both ends kept.

    The one grid-thinning rule for diagnostic subgrids: stride
    ``⌈(n−1)/(cap−1)⌉``, plus the last node when the stride skips it.
    """
    stride = max(1, math.ceil((n - 1) / max(cap - 1, 1)))
    return np.unique(np.r_[np.arange(0, n, stride), n - 1])


class Control:
    """A superadditive control ``ω(s, t)`` attached to a time grid.

    Args:
        times: the grid the control lives on.
        evaluate: vectorized callable ``(s, t) -> ω(s, t)`` for ``s <= t``
            (broadcasting arrays of times).
        kind: tag describing provenance, e.g. ``"interval-power"``,
            ``"rough-path-variation"``, ``"sum"``,
            ``"scaled"``, ``"zero"``.
    """

    def __init__(self, times, evaluate: Callable, kind: str = "custom"):
        self.times = _as_times(times)
        self._evaluate = evaluate
        self.kind = kind

    # -- evaluation ---------------------------------------------------------

    def __call__(self, s, t):
        s_arr = np.asarray(s, dtype=float)
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr - s_arr < -_time_tol(self.times)):
            raise GridError("control evaluated with s > t")
        out = self._ordered(np.minimum(s_arr, t_arr), np.maximum(s_arr, t_arr))
        if out.ndim == 0:
            return float(out)
        return out

    def _ordered(self, s, t) -> np.ndarray:
        """``ω(s, t)`` as a float array for arguments already ordered
        ``s <= t``, unchecked: the admissibility columns of the partition DP,
        whose rows precede their end node on a strictly increasing grid."""
        return np.asarray(self._evaluate(s, t), dtype=float)

    def pair_table(self, times=None) -> np.ndarray:
        """Dense table ``T[i, j] = ω(t_i, t_j)`` over ``times`` (upper triangle)."""
        t = self.times if times is None else _as_times(times)
        table = np.zeros((t.size, t.size))
        i, j = np.triu_indices(t.size, k=1)
        table[i, j] = np.asarray(self(t[i], t[j]), dtype=float)
        return table

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "Control") -> "Control":
        if not isinstance(other, Control):
            return NotImplemented
        if self.times.size != other.times.size or not np.allclose(self.times, other.times):
            raise GridError("can only add controls over identical grids")
        return Control(self.times, lambda s, t: self(s, t) + other(s, t), kind="sum")

    def __mul__(self, factor: float) -> "Control":
        c = float(factor)
        if c < 0:
            raise ControlError("controls can only be scaled by nonnegative factors")
        return Control(self.times, lambda s, t: c * self(s, t), kind="scaled")

    __rmul__ = __mul__

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, times) -> "Control":
        return cls(times, lambda s, t: np.zeros(np.broadcast(s, t).shape), kind="zero")

    @classmethod
    def interval_power(cls, times, exponent: float, scale: float = 1.0) -> "Control":
        """``ω(s, t) = scale · (t − s)^exponent``; superadditive iff exponent ≥ 1."""
        if exponent < 1:
            raise ControlError(f"interval power {exponent} < 1 is not superadditive")
        if scale < 0:
            raise ControlError("interval-power scale must be nonnegative")
        return cls(times, lambda s, t: scale * (t - s) ** exponent, kind="interval-power")

    @classmethod
    def from_table(cls, times, table: np.ndarray, kind: str = "table") -> "Control":
        """Wrap a precomputed pair table; evaluation requires on-grid arguments."""
        t = _as_times(times)
        tab = np.asarray(table, dtype=float)
        if tab.shape != (t.size, t.size):
            raise GridError("control table shape does not match the grid")

        def evaluate(s, u):
            i = locate_nodes(t, s)
            j = locate_nodes(t, u)
            return tab[i, j].reshape(np.broadcast(s, u).shape)

        ctrl = cls(t, evaluate, kind=kind)
        ctrl._table = tab
        return ctrl

    # -- contract checks ----------------------------------------------------

    def superadditivity_defect(self) -> float:
        """Largest violation ``ω(s, u) + ω(u, t) − ω(s, t)`` over grid triples.

        A nonpositive value (up to rounding) certifies superadditivity on the
        grid.  Cost is O(m³) over the control's ``m`` nodes.
        """
        table = self.pair_table(self.times)
        worst = -np.inf
        for j in range(1, self.times.size - 1):
            gap = table[:j, j, None] + table[None, j, j + 1:] - table[:j, j + 1:]
            worst = max(worst, float(gap.max()))
        return worst if np.isfinite(worst) else 0.0

    def check(self) -> None:
        """Validate diagonal zeros, nonnegativity, and superadditivity on the
        control's grid.

        Raises:
            ControlError: on any violation beyond
                ``SUPERADDITIVITY_ABS_TOL + SUPERADDITIVITY_REL_TOL·scale``.
        """
        t = self.times
        diag = np.abs(self(t, t))
        table = self.pair_table(t)
        scale = float(np.abs(table).max()) if table.size else 0.0
        tol = SUPERADDITIVITY_ABS_TOL + SUPERADDITIVITY_REL_TOL * scale
        if diag.max(initial=0.0) > tol:
            raise ControlError("control is nonzero on the diagonal")
        if table.min(initial=0.0) < -tol:
            raise ControlError("control takes negative values")
        defect = self.superadditivity_defect()
        if defect > tol:
            raise ControlError(f"control is not superadditive (defect {defect:.3e} > {tol:.3e})")


@dataclass(frozen=True)
class Localization:
    """A control together with a positive threshold ``L``.

    A pair ``(s, t)`` is *admissible* when ``base_control(s, t) <= L``; all
    localized quantities restrict partitions to admissible cells.
    """

    base_control: Control
    threshold: float

    def __post_init__(self):
        if not (self.threshold > 0):
            raise ControlError("localization threshold must be positive")

    def admissible(self, s, t):
        return np.asarray(self.base_control(s, t)) <= self.threshold

    def mask(self, times=None) -> np.ndarray:
        """Boolean admissibility table over ``times`` (upper triangle meaningful)."""
        t = self.base_control.times if times is None else _as_times(times)
        return self.base_control.pair_table(t) <= self.threshold


def _default_localization(omega_z: Control, times: np.ndarray, p: float,
                          threshold: float | None = None) -> Localization:
    """Localize by ``ω_Z + |t−s|^p``; the threshold defaults to four times
    the largest consecutive-step control (1.0 when every step is zero)."""
    omega = omega_z + Control.interval_power(times, p)
    if threshold is None:
        steps = np.asarray(omega(times[:-1], times[1:]))
        threshold = 4.0 * float(steps.max()) if steps.max() > 0 else 1.0
    return Localization(omega, threshold)


# ---------------------------------------------------------------------------
# increment preparation and the partition dynamic program
# ---------------------------------------------------------------------------

def _sample_rows(values) -> np.ndarray:
    """One-index samples as a float ``(n+1, d)`` array (trailing axes flattened).

    Raises:
        GridError: when there is no sample, or a sample row is not finite
            (the first is named).
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 0 or v.shape[0] < 1:
        raise GridError("p-variation of an empty path is undefined")
    v = v.reshape(v.shape[0], -1)
    finite = np.isfinite(v).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise GridError(f"sample row {row} is not finite")
    return v


def _turning_nodes(x: np.ndarray) -> np.ndarray:
    """Indices of the end points and non-strict local extrema of the scalar
    path ``x``: every interior ``i`` with ``(x_i − x_{i−1})(x_{i+1} − x_i) <= 0``,
    so plateaus are kept.

    For ``p > 1``, ``|y − a|^p + |b − y|^p`` is strictly convex in ``y``, so
    a node strictly inside a monotone run lies in no optimal partition of any
    prefix: moving it to a neighbour gains.  Every maximizer of the partition
    DP at a kept node is then a kept node, and the first one among the kept
    candidates is the first one among all.  The test is made on comparisons
    of neighbours, so it needs no float temporaries and nothing can underflow.
    """
    rise = x[1:] > x[:-1]
    fall = x[1:] < x[:-1]
    keep = np.ones(x.size, dtype=bool)
    keep[1:-1] = ~(rise[:-1] & rise[1:] | fall[:-1] & fall[1:])
    return np.flatnonzero(keep)


def _norms_from_increments(increments) -> np.ndarray:
    g = np.asarray(increments, dtype=float)
    if g.ndim < 2 or g.shape[0] != g.shape[1]:
        raise GridError("two-index increments must have shape (n+1, n+1, ...)")
    g = g.reshape(g.shape[0], g.shape[1], -1)
    return np.sqrt(np.einsum("ijk,ijk->ij", g, g))


class _Columns:
    """Stands in for a dense ``(m, m)`` table where only ``[:j, j]`` is read.

    :func:`_partition_dp` reads one column per end node ``j``; this source
    computes it on demand as ``column(rows, j)``, so no table is stored.
    """

    def __init__(self, m: int, column: Callable):
        self.shape = (m, m)
        self._column = column

    def __getitem__(self, key):
        rows, j = key
        return self._column(rows, j)


def _cell_powers(values, increments, p: float):
    """The ``|g_{t_i, t_j}|^p`` table that :func:`_partition_dp` reads.

    ``values`` gives a column source: column ``j`` is
    ``‖g(t_j) − g(t_i)‖^p`` over ``i < j``, bitwise equal to the same column
    of the dense reference ``tests/reference.py::norms_from_values(values)
    ** p``, in O(n·d) memory.  ``increments`` gives the dense O(n²) table of
    its norms.

    Raises:
        GridError: not exactly one input; an empty path; malformed
            increments; a sample row that is not finite (the first is named).
    """
    if (values is None) == (increments is None):
        raise GridError("pass exactly one of `values` (one-index) or `increments` (two-index)")
    if increments is not None:
        return _norms_from_increments(increments) ** p
    v = _sample_rows(values)

    def column(rows, j):
        d = v[j] - v[rows]
        return np.sqrt(np.einsum("ik,ik->i", d, d)) ** p

    return _Columns(v.shape[0], column)


def _admissible_mask(loc: Localization | None, t: np.ndarray, m: int) -> _Columns | None:
    """Admissibility of ``loc`` on the ``m``-sample grid ``t`` as a column
    source, ``[:j, j]`` being ``loc.admissible(t[:j], t[j])`` (``None``
    without a localization).

    Raises:
        GridError: when ``t`` does not have one node per sample.
        InfeasibleLocalizationError: when a consecutive step already violates
            the threshold (``step`` is the first such index), so no
            admissible partition exists.
    """
    if t.size != m:
        raise GridError(f"grid has {t.size} nodes but the path has {m} samples")
    if loc is None:
        return None
    step_ok = loc.admissible(t[:-1], t[1:])
    if not np.all(step_ok):
        i = int(np.argmin(step_ok))
        raise InfeasibleLocalizationError(
            f"no admissible partition: consecutive step ({t[i]:g}, {t[i + 1]:g}) has "
            f"control {float(loc.base_control(t[i], t[i + 1])):.6g} > threshold "
            f"{loc.threshold:.6g}", step=i)
    # rows precede j, so the pairs are ordered and skip __call__'s checks
    return _Columns(m, lambda rows, j:
                    loc.base_control._ordered(t[rows], t[j]) <= loc.threshold)


def _partition_dp(norms_pow: np.ndarray, mask: np.ndarray | None, starts: int):
    """Maximal (masked) partition sums from each of the first ``starts`` nodes.

    ``norms_pow`` and ``mask`` are read only through ``.shape`` and one
    column per end node ``j``, so a column source such as :class:`_Columns`
    serves as well as a dense ``(m, m)`` table.  Without a mask the column
    is ``[:j, j]``; with one, ``norms_pow`` is read only on the admissible
    rows ``mask[:j, j].nonzero()`` (any subset, not only a suffix), so a
    column costs O(admissible rows) beyond its mask.

    ``V[i, j]`` is the best sum of ``norms_pow`` over partitions of the
    window ``[t_i, t_j]`` whose cells are all admissible (``-inf`` when none
    is), and ``pred[i, j]`` the last interior node of its first maximizer;
    ``pred`` is meaningful only where ``V`` is finite.  Entries with
    ``j <= i`` are ``0`` on the diagonal and ``-inf`` below it.

    Returns:
        (V, pred), both of shape ``(starts, m)``.
    """
    m = norms_pow.shape[0]
    V = np.full((starts, m), -np.inf)
    np.fill_diagonal(V, 0.0)
    pred = np.full((starts, m), -1, dtype=int)
    for j in range(1, m):
        h = min(j, starts)
        if mask is None:
            cand = V[:h, :j] + norms_pow[:j, j]
            V[:h, j] = cand.max(axis=1)
            pred[:h, j] = cand.argmax(axis=1)
            continue
        rows = mask[:j, j].nonzero()[0]
        if rows.size == 0:  # no admissible last cell: V stays -inf
            pred[:h, j] = 0
            continue
        cand = V[:h, rows] + norms_pow[rows, j]
        V[:h, j] = cand.max(axis=1)
        pred[:h, j] = rows[cand.argmax(axis=1)]
    return V, pred


def _walk_partition(pred: np.ndarray, end: int) -> list[int]:
    nodes = [end]
    while pred[nodes[-1]] >= 0:
        nodes.append(int(pred[nodes[-1]]))
    return nodes[::-1]


def p_variation(values=None, p: float = 2.0, *, increments=None,
                return_partition: bool = False):
    """p-variation ``‖g‖_p^p`` over all grid-subordinate partitions.

    Args:
        values: one-index samples, shape ``(n+1, ...)``.
        p: variation exponent, ``p >= 1``.
        increments: two-index increments, shape ``(n+1, n+1, ...)``
            (alternative to ``values``).
        return_partition: also return the maximizing partition as node indices.

    Returns:
        ``‖g‖_p^p`` (float), or ``(value, partition_indices)``.

    Work is O(n²·d) for ``values`` with ``d`` entries per sample, and O(n²)
    for ``increments`` after its dense norm table.  A scalar ``values`` path
    (``d = 1``) with ``p > 1`` is first reduced to its end points and
    non-strict local extrema (:func:`_turning_nodes`), ``k`` nodes, and
    costs O(n + k²); value and partition are bit for bit those of the full
    DP.  At ``p = 1`` ties along monotone runs would let the candidate set
    pick the partition, so every node stays.  Memory is O(n·d) for
    ``values`` (the cell values are streamed column by column) and O(n²)
    for ``increments``.

    Raises:
        GridError: empty path, malformed increments, or a non-finite sample
            row in ``values``.
        HypothesisError: ``p < 1``.
    """
    if p < 1:
        raise HypothesisError(f"p-variation requires p >= 1, got p={p}")
    nodes = None
    if values is not None and increments is None and p > 1:
        values = _sample_rows(values)
        if values.shape[1] == 1:
            nodes = _turning_nodes(values[:, 0])
            values = values[nodes]
    cells = _cell_powers(values, increments, p)
    m = cells.shape[0]
    if m == 1:
        return (0.0, [0]) if return_partition else 0.0
    V, pred = _partition_dp(cells, None, 1)
    value = float(V[0, -1])
    if return_partition:
        partition = _walk_partition(pred[0], m - 1)
        return value, partition if nodes is None else nodes[partition].tolist()
    return value


def localized_p_variation(values=None, p: float = 2.0, loc: Localization | None = None, *,
                          increments=None, times=None, return_partition: bool = False):
    """Localized p-variation: partitions restricted to cells with ``ω̄ <= L``.

    The admissibility mask is evaluated on ``times`` (defaults to the grid of
    ``loc.base_control``, which must then match the sample count).  Any
    positive exponent is allowed — localized variation is routinely used with
    exponents below one (e.g. ``p/3`` for remainder scales).

    Work is O(n²) control evaluations for the admissibility columns plus
    O(a·d) for the increment powers and candidate sums, where ``a`` is the
    number of admissible cells: column ``j`` of the DP reads only its
    admissible rows.  Memory is as for :func:`p_variation`: O(n·d) for
    ``values``, whose cell values and admissibility are both streamed column
    by column, and O(n²) for ``increments``.

    Raises:
        GridError: as for :func:`p_variation`, or a grid that does not have
            one node per sample.
        InfeasibleLocalizationError: when some consecutive step already
            violates the threshold, so no admissible partition exists.  (By
            superadditivity this is the only way feasibility can fail.)
    """
    if loc is None:
        raise HypothesisError("localized_p_variation requires a Localization")
    if p <= 0:
        raise HypothesisError(f"localized p-variation requires p > 0, got p={p}")
    cells = _cell_powers(values, increments, p)
    m = cells.shape[0]
    t = _as_times(times) if times is not None else loc.base_control.times
    mask = _admissible_mask(loc, t, m)
    if m == 1:
        return (0.0, [0]) if return_partition else 0.0
    V, pred = _partition_dp(cells, mask, 1)
    value = float(V[0, -1])
    if return_partition:
        return value, _walk_partition(pred[0], m - 1)
    return value


def _all_windows_dp(norms_pow: np.ndarray) -> np.ndarray:
    """Table ``V[i, j]`` of maximal partition sums over every window
    ``i < j``; zero on and below the diagonal."""
    return np.triu(_partition_dp(norms_pow, None, norms_pow.shape[0])[0], 1)


# ---------------------------------------------------------------------------
# rough Gronwall bound
# ---------------------------------------------------------------------------

def rough_gronwall_bound(G0: float, omega1: Control, omega2: Control | None = None,
                         omega3: Control | None = None, *, L: float, C: float,
                         k: float, k_prime: float, C_prime: float = 0.0) -> float:
    """A-priori sup bound for increment inequalities driven by controls.

    For a path ``G ≥ 0`` whose increments satisfy, on every interval with
    ``ω₁(s, t) <= L``,

        ``G_t − G_s <= C·(sup_{[s,t]} G + C') · ω₁(s,t)^{1/k}
        + ω₂(s,t)^{1/k'} + ω₃(s,t)``,

    with ``ω₂ <= ω₁`` pointwise, the sup of ``G`` over ``[0, T]`` is bounded by

        ``2·exp(ω₁(0,T)/(αL)) · ( G_0 + sup_t ω₃(0,t)·e^{−ω₁(0,t)/(αL)}
        + sup_t ω₂(0,t)^{(1−θ)/k'}·e^{−ω₁(0,t)/(αL)} + C' )``

    where ``θ = k'/k`` and ``α = min(1, 1/(L·(2Ce²)^k))``.

    Args:
        G0: value of ``G`` at the left end point.
        omega1, omega2, omega3: the driving controls (``None`` means zero).
        L: localization threshold (> 0).
        C, k, k_prime, C_prime: the constants of the increment inequality;
            requires ``C > 0``, ``k >= k_prime >= 1``, ``C_prime >= 0``.

    Returns:
        The bound on ``sup_{[0,T]} G`` (a nonnegative float, ``inf`` when it
        exceeds the float range), with the sups evaluated on ``omega1.times``.

    Raises:
        HypothesisError: constants out of range, or ``ω₂ > ω₁`` somewhere on
            the grid.
    """
    if not (L > 0):
        raise HypothesisError("rough Gronwall bound requires L > 0")
    if not (C > 0):
        raise HypothesisError("rough Gronwall bound requires C > 0")
    if not (k >= k_prime >= 1):
        raise HypothesisError("rough Gronwall bound requires k >= k' >= 1")
    if C_prime < 0:
        raise HypothesisError("rough Gronwall bound requires C' >= 0")

    t = omega1.times
    if omega2 is None:
        omega2 = Control.zero(t)
    if omega3 is None:
        omega3 = Control.zero(t)

    theta = k_prime / k
    alpha = min(1.0, 1.0 / (L * (2.0 * C * math.e ** 2) ** k))

    t0 = t[0]
    w1 = np.asarray(omega1(np.full(t.shape, t0), t), dtype=float)
    w2 = np.asarray(omega2(np.full(t.shape, t0), t), dtype=float)
    w3 = np.asarray(omega3(np.full(t.shape, t0), t), dtype=float)

    # hypothesis: ω₂ dominated by ω₁ (checked on all grid pairs)
    tab1 = omega1.pair_table(t)
    tab2 = omega2.pair_table(t)
    slack = SUPERADDITIVITY_ABS_TOL + SUPERADDITIVITY_REL_TOL * max(tab1.max(initial=0.0), 1.0)
    if np.any(tab2 > tab1 + slack):
        raise HypothesisError("rough Gronwall hypothesis violated: ω₂ exceeds ω₁ on the grid")

    decay = np.exp(-w1 / (alpha * L))
    tail3 = float(np.max(w3 * decay))
    expo = (1.0 - theta) / k_prime
    w2_term = np.power(w2, expo, out=np.zeros_like(w2), where=w2 > 0)
    tail2 = float(np.max(w2_term * decay))

    base = float(G0) + tail3 + tail2 + C_prime
    if base == 0.0:  # G ≡ 0, whatever the growth factor
        return 0.0
    # the exponential is astronomically conservative for rough drivers; past
    # the float range the bound is inf (an infinite bound is still a bound).
    # The range is checked on the growth's logarithm and the product is taken
    # in Python floats, which saturate to inf without a numpy warning.
    log_growth = float(w1[-1]) / (alpha * L)
    growth = math.inf if log_growth > _LOG_FLOAT_MAX else float(np.exp(log_growth))
    return 2.0 * growth * base
