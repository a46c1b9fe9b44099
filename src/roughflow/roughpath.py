"""Level-2 rough paths: lifts, Chen bookkeeping, fBm sampling, reversal, I/O.

Conventions
-----------
* A path ``Z`` with values in ℝ^M is stored by its samples on a strictly
  increasing time grid; the second level 𝕫 is stored per consecutive segment
  and every other window is produced by Chen's relation

      𝕫_{s,t} = 𝕫_{s,u} + 𝕫_{u,t} + Z_{s,u} ⊗ Z_{u,t}.

  Index convention: ``𝕫[i, j]_{s,t} = ∫ Z^i_{s,r} dZ^j_r`` (first index is the
  integrand component, second the integrator).
* Off-grid times are meaningful through piecewise-linear interpolation of the
  first level; the second level of a partial segment is the canonical lift of
  the interpolant plus a time-proportional share of the stored segment's
  deviation from its canonical value, which keeps Chen's relation exact even
  for perturbed (non-geometric) lifts.
* A geometric lift satisfies ``Sym 𝕫_{s,t} = ½ Z_{s,t} ⊗ Z_{s,t}``; canonical
  piecewise-linear lifts are geometric by construction.

Internally a prefix table ``P_k = 𝕫_{t_0, t_k}`` is accumulated once via Chen.
Every window query rests on one vectorized, start-anchored read: for any
times τ it returns ``(Z_τ, 𝕫_{t_0,τ})``, the prefix row of the node
``t_k <= τ`` Chen-composed with the partial segment ``[t_k, τ]``.  A window
``[s, t]`` is then two reads and Chen's relation,

    𝕫_{s,t} = 𝕫_{t_0,t} − 𝕫_{t_0,s} − Z_{t_0,s} ⊗ Z_{s,t},

on and off the stored grid alike.  :meth:`RoughPath.increment` is that
formula for times or arrays of times; :meth:`RoughPath.pair_tables` reads a
grid once and forms every pair — the primitive behind the variation controls
and the weak-remainder ledger; :meth:`RoughPath.resample` is one read of the
new grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, HypothesisError
from .fields import _read_table
from .variation import (Control, _all_windows_dp, _as_times, _norms_from_increments,
                        _time_tol, locate_nodes)

__all__ = [
    "RoughPath",
    "DriverPair",
    "lift_piecewise_linear",
    "sample_fbm",
    "reverse_rough_path",
    "variation_control",
    "difference_variation_control",
    "save_rough_path_csv",
    "load_rough_path_csv",
]


class RoughPath:
    """A level-2 rough path sampled on a time grid.

    Args:
        times: strictly increasing grid ``t_0 < … < t_n``.
        values: path samples, shape ``(n+1, M)`` (a 1-d array is promoted to
            ``M = 1``).
        segment_area: consecutive second levels ``𝕫_{t_k, t_{k+1}}``, shape
            ``(n, M, M)``.
        p_exponent: the variation exponent the path is meant to be used at;
            must lie in ``[2, 3)`` for level-2 lifts.
    """

    def __init__(self, times, values, segment_area, p_exponent: float = 2.5):
        self.times = _as_times(times)
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] != self.times.size:
            raise GridError("values must have shape (n+1, M) matching the grid")
        self.values = vals
        area = np.asarray(segment_area, dtype=float)
        n, M = self.times.size - 1, vals.shape[1]
        if area.shape != (n, M, M):
            raise GridError(f"segment_area must have shape ({n}, {M}, {M})")
        self.segment_area = area
        if not (2.0 <= p_exponent < 3.0):
            raise HypothesisError(f"level-2 rough paths need p in [2, 3), got {p_exponent}")
        self.p_exponent = float(p_exponent)
        self._prefix = self._accumulate_prefix()
        self._segments = self._segment_tables()

    # -- basics ---------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    def _accumulate_prefix(self) -> np.ndarray:
        n, M = self.n_steps, self.dim
        P = np.zeros((n + 1, M, M))
        z0 = self.values[0]
        dZ = np.diff(self.values, axis=0)
        cross = np.einsum("ka,kb->kab", self.values[:-1] - z0, dZ)
        np.cumsum(self.segment_area + cross, axis=0, out=P[1:])
        return P

    def _segment_tables(self):
        """Per-node length, rise and deviation from the canonical area of the
        segment starting there.  The row of the last node is a flat segment
        of unit length, so a read at ``t_n`` lands on that node exactly."""
        dZ = np.diff(self.values, axis=0)
        deviation = self.segment_area - 0.5 * np.einsum("ka,kb->kab", dZ, dZ)
        return (np.append(np.diff(self.times), 1.0),
                np.concatenate([dZ, np.zeros((1, self.dim))]),
                np.concatenate([deviation, np.zeros((1, self.dim, self.dim))]))

    def node_index(self, t: float) -> int:
        return int(locate_nodes(self.times, t)[0])

    # -- window queries ---------------------------------------------------------

    def _anchored(self, tau):
        """(Z_τ, 𝕫_{t_0,τ}) for an array of times τ inside the span.

        The prefix row of the node ``t_k <= τ`` Chen-composed with the
        partial segment ``[t_k, τ]``: the canonical lift of the interpolant
        plus the share ``(τ−t_k)/Δt`` of the segment's deviation.  Every
        window query is two of these reads and :meth:`_chen`.
        """
        tau = np.asarray(tau, dtype=float)
        t = self.times
        tol = _time_tol(t)
        if tau.min() < t[0] - tol or tau.max() > t[-1] + tol:
            raise GridError(f"query times [{tau.min()}, {tau.max()}] leave the "
                            f"path's span [{t[0]}, {t[-1]}]")
        k = np.searchsorted(t, tau, side="right") - 1
        np.maximum(k, 0, out=k)
        span, rise, deviation = self._segments
        frac = (tau - t[k]) / span[k]
        dz = frac[..., None] * rise[k]
        x = self.values[k] - self.values[0]
        area = 0.5 * dz[..., :, None] * dz[..., None, :]
        area += frac[..., None, None] * deviation[k]
        return (self.values[k] + dz,
                self._prefix[k] + area + x[..., :, None] * dz[..., None, :])

    def _chen(self, read, i, j):
        """Windows ``[τ_i, τ_j]`` of one :meth:`_anchored` read, by Chen:
        ``𝕫_{s,t} = 𝕫_{t_0,t} − 𝕫_{t_0,s} − Z_{t_0,s} ⊗ Z_{s,t}``."""
        Z, P = read
        z = Z[j] - Z[i]
        return z, P[j] - P[i] - (Z[i] - self.values[0])[..., :, None] * z[..., None, :]

    def increment(self, s, t):
        """Both levels ``(Z_{s,t}, 𝕫_{s,t})`` over windows inside the span.

        ``s`` and ``t`` are times, or arrays of times of one shape, with
        ``s <= t``; the result has that shape followed by ``(M,)`` and
        ``(M, M)``.  Each window is two start-anchored reads and Chen's
        relation, on and off the stored grid alike.
        """
        tau = np.array([s, t], dtype=float)
        if (tau[1] < tau[0]).any():
            raise GridError("increment requires s <= t")
        return self._chen(self._anchored(tau), 0, 1)

    def pair_tables(self, times) -> tuple[np.ndarray, np.ndarray]:
        """(Z, 𝕫) over every pair ``i < j`` of the grid ``times``.

        Returns ``Z`` of shape ``(m, m, M)`` and ``𝕫`` of shape
        ``(m, m, M, M)`` with ``Z[i, j] = Z_{t_i, t_j}`` and
        ``𝕫[i, j] = 𝕫_{t_i, t_j}``; entries on and below the diagonal are
        zero.  The grid is read once and the pairs are formed by Chen's
        relation, the formula of :meth:`increment`; on stored nodes that is
        two prefix-table rows and one outer product per pair.
        """
        t = _as_times(times)
        m, M = t.size, self.dim
        i, j = np.triu_indices(m, k=1)
        Z = np.zeros((m, m, M))
        A = np.zeros((m, m, M, M))
        Z[i, j], A[i, j] = self._chen(self._anchored(t), i, j)
        return Z, A

    # -- contract checks --------------------------------------------------------

    def chen_defect_scan(self, n_triples: int = 64) -> float:
        """Max relative Chen defect over randomly sampled node triples."""
        n = self.n_steps
        if n < 2:
            return 0.0
        rng = np.random.default_rng(0)
        tri = np.sort(rng.integers(0, n + 1, size=(n_triples, 3)), axis=1)
        keep = (tri[:, 0] < tri[:, 1]) & (tri[:, 1] < tri[:, 2])
        tri = tri[keep]
        if tri.size == 0:
            tri = np.array([[0, n // 2, n]])
        read = self._anchored(self.times[tri.T])
        z_ij, a_ij = self._chen(read, 0, 1)
        z_jk, a_jk = self._chen(read, 1, 2)
        lhs = self._chen(read, 0, 2)[1]
        rhs = a_ij + a_jk + z_ij[..., :, None] * z_jk[..., None, :]
        scale = max(float(np.abs(lhs).max()), float(np.abs(rhs).max()), 1e-300)
        return float(np.abs(lhs - rhs).max()) / scale

    def restrict(self, sub_times) -> "RoughPath":
        """The same rough path on a subgrid of stored nodes."""
        idx = locate_nodes(self.times, _as_times(sub_times))
        if np.any(np.diff(idx) <= 0):
            raise GridError("subgrid must be strictly increasing within the span")
        return self.resample(self.times[idx])

    def resample(self, new_times) -> "RoughPath":
        """The same rough path on an arbitrary grid inside the span.

        Unlike :meth:`restrict`, the new nodes need not be nodes of the stored
        grid; off-grid values and areas follow the documented partial-segment
        convention, so Chen's relation stays exact.
        """
        nt = _as_times(new_times)
        if nt.size < 2:
            raise GridError("resample grid needs at least two times")
        read = self._anchored(nt)
        areas = self._chen(read, slice(None, -1), slice(1, None))[1]
        return RoughPath(nt, read[0], areas, self.p_exponent)


def lift_piecewise_linear(times, values, p_exponent: float = 2.5) -> RoughPath:
    """Canonical (geometric) lift of a piecewise-linear path.

    Within each segment the path is linear, so the iterated integral is exact:
    ``𝕫_{t_k, t_{k+1}} = ½ ΔZ_k ⊗ ΔZ_k``.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    dZ = np.diff(vals, axis=0)
    areas = 0.5 * np.einsum("ka,kb->kab", dZ, dZ)
    return RoughPath(times, vals, areas, p_exponent)


def reverse_rough_path(rp: RoughPath, t: float) -> RoughPath:
    """The lift of ``s ↦ Z_{t−s}`` on ``[0, t−t_0]``; ``t`` must be a node.

    Per segment the algebraic reversal is ``𝕫̄ = −𝕫 + ΔZ⊗ΔZ`` (with reversed
    segment order), which coincides with re-lifting the reversed interpolant
    for canonical lifts and is a Chen-exact involution in general.
    """
    idx = rp.node_index(t)
    if idx == 0:
        raise GridError("cannot reverse at the left end point")
    times = rp.times[idx::-1]
    rev_times = times[0] - times
    rev_vals = rp.values[idx::-1]
    dZ = np.diff(rp.values[:idx + 1], axis=0)[::-1]
    areas = -rp.segment_area[idx - 1::-1] + np.einsum("ka,kb->kab", dZ, dZ)
    return RoughPath(rev_times, rev_vals, areas, rp.p_exponent)


# ---------------------------------------------------------------------------
# fractional Brownian motion (Davies–Harte circulant embedding)
# ---------------------------------------------------------------------------

def sample_fbm(H: float, n: int, T: float = 1.0, *, dims: int = 1,
               seed: int = 0) -> np.ndarray:
    """Exact fBm samples on a uniform grid of ``n`` steps over ``[0, T]``.

    Uses the circulant embedding of the fractional-Gaussian-noise covariance
    (Davies & Harte 1987; see also Dieker's survey), which is provably
    nonnegative-definite for ``H <= 1/2`` — the admissible rough regime here
    is ``H ∈ (1/3, 1/2]``.  Components are independent; the draw order is
    fixed, so a seed pins the entire array bit for bit.

    Returns:
        samples of shape ``(n+1, dims)`` with ``B_0 = 0`` and
        ``Var(B_T) = T^{2H}`` per component.

    Raises:
        HypothesisError: ``H`` outside ``(1/3, 1/2]``, or an embedding
            eigenvalue below ``−1e-8·λ_max`` (which the above rules out).
    """
    if not (1.0 / 3.0 < H <= 0.5):
        raise HypothesisError(f"sample_fbm requires H in (1/3, 1/2], got {H}")
    if n < 1:
        raise GridError("need at least one step")
    rng = np.random.default_rng(seed)
    dt = T / n

    k = np.arange(n + 1, dtype=float)
    cov = 0.5 * ((k + 1) ** (2 * H) - 2 * k ** (2 * H) + np.abs(k - 1) ** (2 * H))
    row = np.concatenate([cov, cov[-2:0:-1]])  # circulant embedding, size 2n
    lam = np.fft.fft(row).real
    if lam.min() < -1e-8 * max(lam.max(), 1.0):
        raise HypothesisError(
            f"circulant embedding of fractional Gaussian noise is not "
            f"nonnegative-definite for H = {H}, n = {n} "
            f"(min eigenvalue {lam.min():.3g})")
    lam = np.clip(lam, 0.0, None)

    m = 2 * n
    out = np.zeros((n + 1, dims))
    for d in range(dims):
        g = rng.standard_normal(2)
        u = rng.standard_normal(n - 1)
        v = rng.standard_normal(n - 1)
        W = np.zeros(m, dtype=complex)
        W[0] = math.sqrt(lam[0]) * g[0]
        W[n] = math.sqrt(lam[n]) * g[1]
        W[1:n] = np.sqrt(lam[1:n] / 2.0) * (u + 1j * v)
        W[n + 1:] = np.conj(W[1:n][::-1])
        fgn = np.fft.ifft(W).real[:n] * math.sqrt(m)
        out[1:, d] = np.cumsum(fgn) * dt ** H
    return out


# ---------------------------------------------------------------------------
# variation controls of rough paths
# ---------------------------------------------------------------------------

_CONTROL_GRID_CAP = 400


def _control_times(rp: RoughPath, times) -> np.ndarray:
    if times is not None:
        t = _as_times(times)
    else:
        t = rp.times
    if t.size > _CONTROL_GRID_CAP:
        raise GridError(
            f"variation-control tables are O(m³); pass a diagnostic subgrid with at "
            f"most {_CONTROL_GRID_CAP} nodes (got {t.size})")
    return t


def variation_control(rp: RoughPath, times=None, p: float | None = None) -> Control:
    """The canonical control ``ω_Z(s,t) = ‖Z‖^p_{p,[s,t]} + ‖𝕫‖^{p/2}_{p/2,[s,t]}``.

    Variation is taken over partitions subordinate to ``times`` (default: the
    path's own grid), so the table is exactly superadditive.  Intended for
    diagnostic grids: the increments are one :meth:`RoughPath.pair_tables`
    call (a direct gather when ``times`` are stored nodes, one resample
    otherwise), and the all-windows partition DP is one vectorized pass of
    ``m`` steps over every start row, O(m³) arithmetic in the node count
    ``m``, run once for each level.
    """
    t = _control_times(rp, times)
    p = rp.p_exponent if p is None else float(p)
    return _control_from_pair_tables(t, *rp.pair_tables(t), p)


def difference_variation_control(rp1: RoughPath, rp2: RoughPath, times,
                                 p: float | None = None) -> Control:
    """Control of the difference path ``(Z¹−Z², 𝕫¹−𝕫²)`` on a common grid.

    Both paths are queried (Chen-composed / interpolated) at ``times``, so the
    grids need not match as long as the span covers the requested window.
    Costs two :meth:`RoughPath.pair_tables` calls (a direct gather on each
    path whose grid contains ``times``, one resample otherwise) plus the
    all-windows partition DP of :func:`variation_control`.
    """
    t = _control_times(rp1, times)
    if rp1.dim != rp2.dim:
        raise GridError("difference control needs rough paths of equal dimension")
    p = max(rp1.p_exponent, rp2.p_exponent) if p is None else float(p)
    z1, a1 = rp1.pair_tables(t)
    z2, a2 = rp2.pair_tables(t)
    return _control_from_pair_tables(t, z1 - z2, a1 - a2, p)


def _control_from_pair_tables(t: np.ndarray, z: np.ndarray, zz: np.ndarray,
                              p: float) -> Control:
    table = (_all_windows_dp(_norms_from_increments(z) ** p)
             + _all_windows_dp(_norms_from_increments(zz) ** (p / 2.0)))
    return Control.from_table(t, table, kind="rough-path-variation")


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def save_rough_path_csv(rp: RoughPath, path: str) -> None:
    """Write ``t, Z_1..Z_M, A_11..A_MM`` rows (17 significant digits).

    Row ``k`` carries the stored area of segment ``(t_k, t_{k+1})``; the area
    columns of the final row are zero by convention.  A leading comment line
    records the variation exponent.
    """
    M = rp.dim
    headers = (["t"] + [f"Z_{i + 1}" for i in range(M)]
               + [f"A_{i + 1}{j + 1}" for i in range(M) for j in range(M)])
    area_rows = np.concatenate([rp.segment_area.reshape(rp.n_steps, M * M),
                                np.zeros((1, M * M))])
    data = np.column_stack([rp.times, rp.values, area_rows])
    with open(path, "w") as fh:
        fh.write(f"# p_exponent={rp.p_exponent!r}\n")
        fh.write(",".join(headers) + "\n")
        np.savetxt(fh, data, delimiter=",", fmt="%.17g")


def load_rough_path_csv(path: str) -> RoughPath:
    """Read a rough path written by :func:`save_rough_path_csv`.

    Re-validates Chen's relation (and basic shape/finiteness) on load, so a
    corrupted file fails loudly rather than producing a quietly inconsistent
    path.
    """
    p_exponent = 2.5
    with open(path) as fh:
        text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines and lines[0].startswith("#"):
        comment = lines.pop(0)
        if "p_exponent=" in comment:
            field_text = comment.split("p_exponent=")[1]
            try:
                p_exponent = float(field_text)
            except ValueError:
                raise GridError(f"malformed rough-path CSV comment: p_exponent="
                                f"{field_text.strip()!r} is not a number") from None
    header = lines.pop(0).split(",") if lines else []
    M = sum(1 for h in header if h.startswith("Z_"))
    if M == 0 or len(header) != 1 + M + M * M:
        raise GridError(f"malformed rough-path CSV header: {header!r}")
    data = _read_table(path, lines, len(header), "rough-path CSV")
    if not np.all(np.isfinite(data)):
        raise GridError("rough-path CSV contains non-finite entries")
    times = data[:, 0]
    values = data[:, 1:1 + M]
    areas = data[:-1, 1 + M:].reshape(-1, M, M)
    rp = RoughPath(times, values, areas, p_exponent)
    defect = rp.chen_defect_scan()
    if defect > 1e-10:
        raise HypothesisError(f"stored rough path violates Chen's relation "
                              f"(relative defect {defect:.3e})")
    return rp


# ---------------------------------------------------------------------------
# driver bundles
# ---------------------------------------------------------------------------

# allowed max |div σ| relative to max(‖σ‖_∞, 1) on the 32² check grid
_DIV_TOL = 1e-10


@dataclass
class DriverPair:
    """A rough driver together with its divergence-free coefficient fields.

    Args:
        sigma_fields: one field per driver component; each must provide
            ``__call__(points)``, ``gradient(points)``, ``divergence(points)``
            and ``c_norm(order)`` (see :mod:`roughflow.fields`).
        rough_path: the level-2 driver.
        sign_convention: ``+1`` if the noise term enters as ``+σ dZ`` along
            characteristics, ``-1`` for the advecting (transport) convention.
    """

    sigma_fields: tuple
    rough_path: RoughPath
    sign_convention: int = -1

    def __post_init__(self):
        self.sigma_fields = tuple(self.sigma_fields)
        if self.sign_convention not in (-1, 1):
            raise HypothesisError("sign_convention must be +1 or -1")
        if len(self.sigma_fields) != self.rough_path.dim:
            raise GridError(
                f"{len(self.sigma_fields)} coefficient fields for a "
                f"{self.rough_path.dim}-dimensional driver")
        xs = np.linspace(0.0, 2 * np.pi, 33)[:-1]
        pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        for idx, sig in enumerate(self.sigma_fields):
            div = np.abs(np.asarray(sig.divergence(pts)))
            scale = max(float(np.abs(np.asarray(sig(pts))).max()), 1.0)
            if div.max() > _DIV_TOL * scale:
                raise HypothesisError(
                    f"coefficient field {idx} is not divergence-free "
                    f"(max |div| = {div.max():.3e})")

    @property
    def dim(self) -> int:
        return self.rough_path.dim

    def sigma_norm(self, order: int) -> float:
        """Largest C^order norm among the coefficient fields."""
        return max(sig.c_norm(order) for sig in self.sigma_fields)
