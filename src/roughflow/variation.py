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
  The dynamic program over partition end points is the standard O(n²) one
  (same recursion as the classical cumulative-maximum construction used for
  p-variation backbones).

Increment inputs come in two forms:

* ``values``: one-index samples ``g(t_0), …, g(t_n)`` with shape ``(n+1, ...)``
  (trailing axes are flattened and measured in the Euclidean norm), for which
  increments are ``g(t_j) − g(t_i)``;
* ``increments``: a two-index array of shape ``(n+1, n+1, ...)`` whose
  ``[i, j]`` entry is ``g_{t_i, t_j}`` (only ``i < j`` is read) — used for
  genuinely two-index quantities such as remainders.
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
    "best_control",
    "rough_gronwall_bound",
]

#: absolute / relative slack used by superadditivity and feasibility checks
SUPERADDITIVITY_ABS_TOL = 1e-12
SUPERADDITIVITY_REL_TOL = 1e-10

_TIME_MATCH_RTOL = 1e-9


def _as_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise GridError("a time grid must be a one-dimensional array with at least one node")
    if t.size > 1 and not np.all(np.diff(t) > 0):
        raise GridError("time grid must be strictly increasing")
    return t


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
    span = max(times[-1] - times[0], 1.0)
    bad = np.abs(times[idx] - q) > _TIME_MATCH_RTOL * span
    if np.any(bad):
        raise GridError(f"{what} {q[bad][0]!r} is not a node of the grid")
    return idx


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
            ``"rough-path-variation"``, ``"best-control(p=2.5)"``, ``"sum"``,
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
        if np.any(t_arr - s_arr < -_TIME_MATCH_RTOL * max(self.times[-1] - self.times[0], 1.0)):
            raise GridError("control evaluated with s > t")
        out = np.asarray(self._evaluate(np.minimum(s_arr, t_arr), np.maximum(s_arr, t_arr)),
                         dtype=float)
        if out.ndim == 0:
            return float(out)
        return out

    def pair_table(self, times=None) -> np.ndarray:
        """Dense table ``T[i, j] = ω(t_i, t_j)`` over ``times`` (upper triangle)."""
        t = self.times if times is None else _as_times(times)
        S, T = np.meshgrid(t, t, indexing="ij")
        table = np.zeros((t.size, t.size))
        iu = np.triu_indices(t.size, k=1)
        table[iu] = np.asarray(self(S[iu], T[iu]), dtype=float)
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

    def superadditivity_defect(self, times=None) -> float:
        """Largest violation ``ω(s, u) + ω(u, t) − ω(s, t)`` over grid triples.

        A nonpositive value (up to rounding) certifies superadditivity on the
        grid.  Cost is O(m³) over ``m`` nodes; pass a subsampled grid for
        large paths.
        """
        t = self.times if times is None else _as_times(times)
        table = self.pair_table(t)
        worst = -np.inf
        for j in range(1, t.size - 1):
            gap = table[:j, j, None] + table[None, j, j + 1:] - table[:j, j + 1:]
            worst = max(worst, float(gap.max()))
        return worst if np.isfinite(worst) else 0.0

    def check(self, times=None, *, abs_tol: float = SUPERADDITIVITY_ABS_TOL,
              rel_tol: float = SUPERADDITIVITY_REL_TOL) -> None:
        """Validate diagonal zeros, nonnegativity, and superadditivity.

        Raises:
            ControlError: on any violation beyond ``abs_tol + rel_tol·scale``.
        """
        t = self.times if times is None else _as_times(times)
        diag = np.abs(self(t, t))
        table = self.pair_table(t)
        scale = float(np.abs(table).max()) if table.size else 0.0
        tol = abs_tol + rel_tol * scale
        if diag.max(initial=0.0) > tol:
            raise ControlError("control is nonzero on the diagonal")
        if table.min(initial=0.0) < -tol:
            raise ControlError("control takes negative values")
        defect = self.superadditivity_defect(t)
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


# ---------------------------------------------------------------------------
# increment preparation and the partition dynamic program
# ---------------------------------------------------------------------------

def _norms_from_values(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim == 0 or v.shape[0] < 1:
        raise GridError("p-variation of an empty path is undefined")
    v = v.reshape(v.shape[0], -1)
    diff = v[None, :, :] - v[:, None, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _norms_from_increments(increments) -> np.ndarray:
    g = np.asarray(increments, dtype=float)
    if g.ndim < 2 or g.shape[0] != g.shape[1]:
        raise GridError("two-index increments must have shape (n+1, n+1, ...)")
    g = g.reshape(g.shape[0], g.shape[1], -1)
    return np.sqrt(np.einsum("ijk,ijk->ij", g, g))


def _increment_norms(values=None, increments=None) -> np.ndarray:
    if (values is None) == (increments is None):
        raise GridError("pass exactly one of `values` (one-index) or `increments` (two-index)")
    return _norms_from_values(values) if values is not None else _norms_from_increments(increments)


def _partition_dp(norms_pow: np.ndarray, mask: np.ndarray | None):
    """Maximal partition sum with optional admissibility mask.

    Returns:
        (value array V over end nodes, predecessor array for reconstruction)
    """
    m = norms_pow.shape[0]
    V = np.full(m, -np.inf)
    V[0] = 0.0
    pred = np.full(m, -1, dtype=int)
    for j in range(1, m):
        cand = V[:j] + norms_pow[:j, j]
        if mask is not None:
            cand = np.where(mask[:j, j], cand, -np.inf)
        k = int(np.argmax(cand))
        V[j] = cand[k]
        pred[j] = k
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

    Raises:
        GridError: empty path or malformed increments.
        HypothesisError: ``p < 1``.
    """
    if p < 1:
        raise HypothesisError(f"p-variation requires p >= 1, got p={p}")
    norms = _increment_norms(values, increments)
    if norms.shape[0] == 1:
        return (0.0, [0]) if return_partition else 0.0
    V, pred = _partition_dp(norms ** p, None)
    value = float(V[-1])
    if return_partition:
        return value, _walk_partition(pred, norms.shape[0] - 1)
    return value


def localized_p_variation(values=None, p: float = 2.0, loc: Localization | None = None, *,
                          increments=None, times=None, return_partition: bool = False):
    """Localized p-variation: partitions restricted to cells with ``ω̄ <= L``.

    The admissibility mask is evaluated on ``times`` (defaults to the grid of
    ``loc.base_control``, which must then match the sample count).  Any
    positive exponent is allowed — localized variation is routinely used with
    exponents below one (e.g. ``p/3`` for remainder scales).

    Raises:
        InfeasibleLocalizationError: when some consecutive step already
            violates the threshold, so no admissible partition exists.  (By
            superadditivity this is the only way feasibility can fail.)
    """
    if loc is None:
        raise HypothesisError("localized_p_variation requires a Localization")
    if p <= 0:
        raise HypothesisError(f"localized p-variation requires p > 0, got p={p}")
    norms = _increment_norms(values, increments)
    m = norms.shape[0]
    t = _as_times(times) if times is not None else loc.base_control.times
    if t.size != m:
        raise GridError(f"grid has {t.size} nodes but the path has {m} samples")
    if m == 1:
        return (0.0, [0]) if return_partition else 0.0
    mask = loc.mask(t)
    step_ok = np.diagonal(mask, offset=1)
    if not np.all(step_ok):
        i = int(np.argmin(step_ok))
        raise InfeasibleLocalizationError(
            f"no admissible partition: consecutive step ({t[i]:g}, {t[i + 1]:g}) has "
            f"control {float(loc.base_control(t[i], t[i + 1])):.6g} > threshold "
            f"{loc.threshold:.6g}", step=i)
    V, pred = _partition_dp(norms ** p, mask)
    value = float(V[-1])
    if return_partition:
        return value, _walk_partition(pred, m - 1)
    return value


def _all_windows_dp(norms_pow: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Table ``V[i, j]`` of maximal (masked) partition sums over every window."""
    m = norms_pow.shape[0]
    V = np.zeros((m, m))
    for i in range(m - 1):
        row = np.full(m, -np.inf)
        row[i] = 0.0
        for j in range(i + 1, m):
            cand = row[i:j] + norms_pow[i:j, j]
            if mask is not None:
                cand = np.where(mask[i:j, j], cand, -np.inf)
            row[j] = cand.max()
        V[i, i + 1:] = row[i + 1:]
    return V


def best_control(values=None, p: float = 2.0, loc: Localization | None = None, *,
                 increments=None, times=None) -> Control:
    """The minimal control dominating ``|g_{s,t}|^p`` on admissible cells.

    ``best_control(g, p, loc)(s, t)`` is the localized p-variation of ``g``
    restricted to the window ``[s, t]``.  It is exactly superadditive on the
    grid (concatenating admissible partitions of adjoining windows yields an
    admissible partition of the union) and dominates ``|g_{s,t}|^p`` whenever
    ``(s, t)`` is admissible; any other control with those two properties
    dominates it, hence "best".

    Without ``loc`` the unrestricted variant is returned.

    Cost is O(m³) in the number of grid nodes — intended for diagnostic grids.
    """
    norms = _increment_norms(values, increments)
    m = norms.shape[0]
    if times is not None:
        t = _as_times(times)
    elif loc is not None:
        t = loc.base_control.times
    else:
        raise GridError("best_control needs `times` when no localization is given")
    if t.size != m:
        raise GridError(f"grid has {t.size} nodes but the path has {m} samples")
    mask = None
    if loc is not None:
        if p <= 0:
            raise HypothesisError(f"best control requires p > 0, got p={p}")
        mask = loc.mask(t)
        step_ok = np.diagonal(mask, offset=1)
        if not np.all(step_ok):
            i = int(np.argmin(step_ok))
            raise InfeasibleLocalizationError(
                f"best control undefined: consecutive step ({t[i]:g}, {t[i + 1]:g}) "
                f"violates the localization threshold", step=i)
    elif p < 1:
        raise HypothesisError(f"unlocalized best control requires p >= 1, got p={p}")
    table = _all_windows_dp(norms ** p, mask)
    tag = f"best-control(p={p:g}" + (f", L={loc.threshold:g})" if loc is not None else ")")
    return Control.from_table(t, table, kind=tag)


# ---------------------------------------------------------------------------
# rough Gronwall bound
# ---------------------------------------------------------------------------

def rough_gronwall_bound(G0: float, omega1: Control, omega2: Control | None = None,
                         omega3: Control | None = None, *, L: float, C: float,
                         k: float, k_prime: float, C_prime: float = 0.0,
                         times=None, sup_tail_terms: tuple[float, float] | None = None) -> float:
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
        times: evaluation grid for the sups (default: ``omega1.times``).
        sup_tail_terms: optional precomputed pair
            ``(sup ω₃-term, sup ω₂-term)`` overriding the internal evaluation.

    Returns:
        The bound on ``sup_{[0,T]} G`` (a nonnegative float).

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

    t = _as_times(times) if times is not None else omega1.times
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

    if sup_tail_terms is not None:
        tail3, tail2 = float(sup_tail_terms[0]), float(sup_tail_terms[1])
    else:
        decay = np.exp(-w1 / (alpha * L))
        tail3 = float(np.max(w3 * decay))
        expo = (1.0 - theta) / k_prime
        w2_term = np.power(w2, expo, out=np.zeros_like(w2), where=w2 > 0)
        tail2 = float(np.max(w2_term * decay))

    total = float(w1[-1])
    # the exponential is astronomically conservative for rough drivers; let it
    # saturate to inf rather than raising (an infinite bound is still a bound)
    growth = np.exp(total / (alpha * L))
    return float(2.0 * growth * (float(G0) + tail3 + tail2 + C_prime))
