"""Controlled paths, the sewing construction, and rough integration.

Shape conventions
-----------------
A path controlled by an ``M``-dimensional rough path stores ``values`` of
shape ``(m, *S)`` and a Gubinelli ``derivative`` of shape ``(m, *S, M)`` whose
last axis is the driver direction: the remainder is

    ``R_{s,t} = X_t − X_s − derivative_s · Z_{s,t}``  (contraction over that axis),

exact by construction.  Integrands of :func:`rough_integral` are the special
case ``*S = (*V, M)``: ``values[..., j]`` is the operator slot applied to
``dZ^j`` and ``derivative[..., j, i]`` its derivative in direction ``i``, so
the local germ reads

    ``Y_s Z_{s,t} + Y'_s 𝕫_{s,t}``  with  ``(Y'𝕫)[a] = Σ_{i,j} Y'[a, j, i] 𝕫^{i,j}``.

Two-index germs for :func:`sew` are dense arrays ``germ[i, j] = h_{t_i, t_j}``.
The sewn path is the left-to-right compensated sum over the finest grid
partition; the summation order is fixed for reproducibility.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoherenceError, GridError, HypothesisError
from .roughpath import RoughPath, _control_from_pair_tables, _control_times, \
    difference_variation_control, variation_control
from .variation import (
    Localization,
    _all_windows_dp,
    _as_times,
    _norms_from_increments,
    _norms_from_values,
    localized_p_variation,
    p_variation,
)

__all__ = [
    "ControlledPath", "SewingResult", "sew", "rough_integral",
    "LocalErrorReport", "integral_difference_bound",
]


class ControlledPath:
    """A path on the rough path's grid together with its Gubinelli derivative.

    The decomposition ``X_{s,t} = X'_s Z_{s,t} + R^X_{s,t}`` holds exactly
    because the remainder is defined by it; what is *not* automatic is that
    ``R^X`` has finite localized (p/2)-variation, which
    :meth:`remainder_variation` measures (raising
    ``InfeasibleLocalizationError`` when the localization cannot even cover
    consecutive steps).
    """

    def __init__(self, rough_path: RoughPath, values, derivative):
        self.rough_path = rough_path
        self.values = np.asarray(values, dtype=float)
        self.derivative = np.asarray(derivative, dtype=float)
        m = rough_path.times.shape[0]
        M = rough_path.dim
        if self.values.shape[0] != m:
            raise GridError(f"controlled path has {self.values.shape[0]} samples "
                            f"but the driver grid has {m} nodes")
        if self.derivative.shape != self.values.shape + (M,):
            raise GridError(
                f"derivative shape {self.derivative.shape} does not extend value "
                f"shape {self.values.shape} by the driver dimension {M}")

    @classmethod
    def constant(cls, rough_path: RoughPath, value) -> "ControlledPath":
        """The constant path (zero Gubinelli derivative)."""
        value = np.asarray(value, dtype=float)
        m = rough_path.times.shape[0]
        values = np.broadcast_to(value, (m,) + value.shape).copy()
        derivative = np.zeros(values.shape + (rough_path.dim,))
        return cls(rough_path, values, derivative)

    @property
    def times(self) -> np.ndarray:
        return self.rough_path.times

    @property
    def state_shape(self) -> tuple:
        return self.values.shape[1:]

    def increment(self, i: int, j: int) -> np.ndarray:
        return self.values[j] - self.values[i]

    def remainder_matrix(self) -> np.ndarray:
        """Dense ``R[i, j] = X_j − X_i − X'_i Z_{i,j}`` (diagnostic; O(m²·|S|))."""
        times = self.times
        m = times.shape[0]
        Z = self.rough_path.values
        dZ = Z[None, :, :] - Z[:, None, :]
        lead = np.einsum("i...d,ijd->ij...", self.derivative, dZ)
        dX = self.values[None, :] - self.values[:, None]
        R = dX - lead
        iu = np.tril_indices(m)
        R[iu] = 0.0
        return R

    def consecutive_remainders(self) -> np.ndarray:
        dZ = np.diff(self.rough_path.values, axis=0)
        lead = np.einsum("k...d,kd->k...", self.derivative[:-1], dZ)
        return np.diff(self.values, axis=0) - lead

    def remainder_variation(self, p: float | None = None,
                            localization: Localization | None = None) -> float:
        """(p/2)-variation (p/2-th power) of the remainder, optionally localized."""
        p = self.rough_path.p_exponent if p is None else float(p)
        R = self.remainder_matrix()
        if localization is None:
            return p_variation(increments=R, p=p / 2.0)
        return localized_p_variation(increments=R, p=p / 2.0, loc=localization,
                                     times=self.times)

    def derivative_variation(self, p: float | None = None,
                             localization: Localization | None = None) -> float:
        """p-variation (p-th power) of the Gubinelli derivative path."""
        p = self.rough_path.p_exponent if p is None else float(p)
        if localization is None:
            return p_variation(values=self.derivative, p=p)
        return localized_p_variation(values=self.derivative, p=p, loc=localization,
                                     times=self.times)

    def __repr__(self):
        return (f"ControlledPath(m={self.values.shape[0]}, "
                f"state_shape={self.state_shape}, M={self.rough_path.dim})")


# ---------------------------------------------------------------------------
# the sewing construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SewingResult:
    """Sewn path plus the measured remainder contract.

    ``max_defect`` is the largest ``|I(h)_{s,t} − h_{s,t}|`` over checked
    pairs and ``constant`` the measured C_ζ (max ratio against
    ``ω(s,t)^{1/ζ}``, ignoring pairs where the control vanishes).  Unpacks as
    ``(values, max_defect)``.
    """

    times: np.ndarray
    values: np.ndarray
    max_defect: float
    constant: float
    zeta: float
    pairs_checked: int

    def __iter__(self):
        return iter((self.values, self.max_defect))


_COHERENCE_TRIPLES = 256


def _sample_triples(m: int):
    """All consecutive triples, topped up with distinct random ones."""
    triples = [(i, i + 1, i + 2) for i in range(m - 2)]
    if m <= 16:
        triples = [(i, u, j) for i, u, j in itertools.combinations(range(m), 3)]
    elif _COHERENCE_TRIPLES > len(triples):
        rng = np.random.default_rng(0)
        seen = set(triples)
        while len(triples) < _COHERENCE_TRIPLES:
            i, u, j = sorted(rng.choice(m, size=3, replace=False))
            if (i, u, j) not in seen:
                seen.add((i, u, j))
                triples.append((i, u, j))
    return triples


def sew(times, germ, zeta: float, control, *, localization: Localization | None = None,
        coherence_cap: float = 1.0) -> SewingResult:
    """Sew a coherent two-index germ into a path.

    The germ must be nearly additive: ``|δh_{s,u,t}| ≤ cap·ω(s,t)^{1/ζ}`` with
    ``ζ ∈ (0, 1)`` on sampled (localized) triples — violations raise
    :class:`CoherenceError` carrying the offending triple.  The sewn path is
    the left-to-right sum of consecutive germ values (the discrete sewing
    limit on the grid's own resolution); the result reports the measured
    remainder ``max |I(h)_{s,t} − h_{s,t}|`` and the empirical constant C_ζ.
    """
    t = _as_times(times)
    h = np.asarray(germ, dtype=float)
    m = t.shape[0]
    if h.shape[:2] != (m, m):
        raise GridError(f"germ must be dense over the grid, expected leading shape "
                        f"{(m, m)}, got {h.shape[:2]}")
    if not (0.0 < zeta < 1.0):
        raise HypothesisError(f"sewing exponent must satisfy 0 < ζ < 1, got {zeta}")

    omega = control.pair_table(t)
    mask = localization.mask(t) if localization is not None else np.ones((m, m), bool)
    scale = float(np.abs(h).max()) or 1.0

    for (i, u, j) in _sample_triples(m):
        if not mask[i, j]:
            continue
        defect = h[i, j] - h[i, u] - h[u, j]
        size = float(np.sqrt((defect ** 2).sum()))
        allowed = coherence_cap * omega[i, j] ** (1.0 / zeta)
        if size > allowed * (1 + 1e-9) + 1e-12 * scale:
            ratio = size / allowed if allowed > 0 else math.inf
            raise CoherenceError(
                f"germ is not coherent: |δh| = {size:.3e} exceeds "
                f"cap·ω^(1/ζ) = {allowed:.3e} on triple "
                f"(t={t[i]:g}, u={t[u]:g}, t'={t[j]:g})",
                triple=(t[i], t[u], t[j]), defect=ratio)

    steps = h[np.arange(m - 1), np.arange(1, m)]
    values = np.concatenate([np.zeros((1,) + h.shape[2:]), np.cumsum(steps, axis=0)])

    dI = values[None, :] - values[:, None]
    defects = _norms_from_increments(dI - h)
    iu, ju = np.triu_indices(m, k=1)
    keep = mask[iu, ju]
    iu, ju = iu[keep], ju[keep]
    max_defect = float(defects[iu, ju].max()) if iu.size else 0.0
    pos = omega[iu, ju] > 0
    constant = float((defects[iu, ju][pos] / omega[iu, ju][pos] ** (1.0 / zeta)).max()) \
        if pos.any() else 0.0
    return SewingResult(times=t, values=values, max_defect=max_defect,
                        constant=constant, zeta=zeta, pairs_checked=int(iu.size))


# ---------------------------------------------------------------------------
# rough integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalErrorReport:
    """Measured local-error contract of a rough integral.

    ``constant`` is the max ratio of ``|∫_s^t Y dZ − germ_{s,t}|`` against
    ``ω_R^{2/p} ω_Z^{1/p} + ω_{Y'}^{1/p} ω_Z^{2/p}`` over checked pairs.
    """

    max_defect: float
    constant: float
    pairs_checked: int


def _require_same_grid(a: np.ndarray, b: np.ndarray, what: str):
    if a.shape != b.shape or not np.array_equal(a, b):
        raise GridError(f"{what}: time grids differ")


def rough_integral(Y: ControlledPath, rough_path: RoughPath | None = None, *,
                   localization: Localization | None = None, report: bool = False):
    """``∫ Y dZ`` as a controlled path (whose Gubinelli derivative is ``Y``).

    The integral accumulates the second-order germ over consecutive grid
    cells: ``I_{k+1} = I_k + Y_k Z_k + Y'_k 𝕫_k``.  With ``report=True`` also
    measures the local-error contract against the driver's variation control
    on (localized) pairs and returns ``(integral, LocalErrorReport)``; the
    report path is O(m²) and subject to the diagnostic grid cap.
    """
    rp = Y.rough_path if rough_path is None else rough_path
    _require_same_grid(rp.times, Y.rough_path.times, "rough_integral")
    if Y.values.shape[-1] != rp.dim:
        raise GridError(f"integrand operator slot has size {Y.values.shape[-1]}, "
                        f"driver dimension is {rp.dim}")
    dZ = np.diff(rp.values, axis=0)
    steps = (np.einsum("k...j,kj->k...", Y.values[:-1], dZ)
             + np.einsum("k...ji,kij->k...", Y.derivative[:-1], rp.segment_area))
    values = np.concatenate([np.zeros((1,) + steps.shape[1:]), np.cumsum(steps, axis=0)])
    integral = ControlledPath(rp, values, Y.values.copy())
    if not report:
        return integral

    p = rp.p_exponent
    t = _control_times(rp, None)   # the driver grid, under the diagnostic cap
    m = t.shape[0]
    mask = localization.mask(t) if localization is not None else None
    z, zz = rp.pair_tables(t)
    omega_z = _control_from_pair_tables(t, z, zz, p).pair_table(t)
    omega_r = _all_windows_dp(_norms_from_increments(Y.remainder_matrix()) ** (p / 2.0), mask)
    omega_d = _all_windows_dp(_norms_from_values(Y.derivative) ** p, mask)

    iu, ju = np.triu_indices(m, k=1)
    if mask is not None:
        keep = mask[iu, ju] & np.isfinite(omega_r[iu, ju]) & np.isfinite(omega_d[iu, ju])
        iu, ju = iu[keep], ju[keep]
    germ = (np.einsum("n...j,nj->n...", Y.values[iu], z[iu, ju])
            + np.einsum("n...ji,nij->n...", Y.derivative[iu], zz[iu, ju]))
    defect = values[ju] - values[iu] - germ
    defect = np.sqrt((defect.reshape(defect.shape[0], -1) ** 2).sum(axis=1))
    bound = (omega_r[iu, ju] ** (2.0 / p) * omega_z[iu, ju] ** (1.0 / p)
             + omega_d[iu, ju] ** (1.0 / p) * omega_z[iu, ju] ** (2.0 / p))
    pos = bound > 0
    constant = float((defect[pos] / bound[pos]).max()) if pos.any() else 0.0
    rep = LocalErrorReport(max_defect=float(defect.max()) if defect.size else 0.0,
                           constant=constant, pairs_checked=int(iu.size))
    return integral, rep


def integral_difference_bound(Y1: ControlledPath, Y2: ControlledPath, *,
                              localization: Localization | None = None,
                              p: float | None = None) -> float:
    """Right-hand side of the two-driver stability estimate for rough integrals.

    Evaluates (with unit constant) the eight-term bound

        ``|X−Y|^p_∞ ω_{Z¹} + |X|^p_∞ ω_{Z¹−Z²} + |X'|^p_∞ ω²_{Z¹−Z²}
          + |X'−Y'|^p_∞ ω²_{Z²} + ω_{Z¹} ω²_{R^X−R^Y} + ω_{Z¹−Z²} ω²_{R^Y}
          + ω_{Y'} ω²_{Z¹−Z²} + ω²_{Z²} ω_{X'−Y'}``

    with every control evaluated over the whole window; the measured
    p-variation of ``∫Y₁dZ¹ − ∫Y₂dZ²`` should be dominated by a constant
    multiple (tests freeze the constant).  Both integrands must live on the
    same time grid.
    """
    rp1, rp2 = Y1.rough_path, Y2.rough_path
    _require_same_grid(rp1.times, rp2.times, "integral_difference_bound")
    if Y1.values.shape != Y2.values.shape:
        raise GridError("integrands have different state shapes")
    t = rp1.times
    p = max(rp1.p_exponent, rp2.p_exponent) if p is None else float(p)

    def sup(arr):
        flat = arr.reshape(arr.shape[0], -1)
        return float(np.sqrt((flat ** 2).sum(axis=1)).max())

    def var(kind, path, q):
        if localization is None:
            return p_variation(**{kind: path}, p=q)
        return localized_p_variation(**{kind: path}, p=q, loc=localization, times=t)

    omega_z1 = variation_control(rp1)(t[0], t[-1])
    omega_z2 = variation_control(rp2)(t[0], t[-1])
    omega_dz = difference_variation_control(rp1, rp2, t)(t[0], t[-1])

    sup_diff = sup(Y1.values - Y2.values)
    sup_x = sup(Y1.values)
    sup_dx = sup(Y1.derivative)
    sup_ddiff = sup(Y1.derivative - Y2.derivative)

    omega_r_diff = var("increments", Y1.remainder_matrix() - Y2.remainder_matrix(), p / 2.0)
    omega_r2 = var("increments", Y2.remainder_matrix(), p / 2.0)
    omega_d2 = var("values", Y2.derivative, p)
    omega_d_diff = var("values", Y1.derivative - Y2.derivative, p)

    return (sup_diff ** p * omega_z1
            + sup_x ** p * omega_dz
            + sup_dx ** p * omega_dz ** 2
            + sup_ddiff ** p * omega_z2 ** 2
            + omega_z1 * omega_r_diff ** 2
            + omega_dz * omega_r2 ** 2
            + omega_d2 * omega_dz ** 2
            + omega_z2 ** 2 * omega_d_diff)
