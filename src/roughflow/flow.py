"""Davie-scheme particle flows on the torus driven by level-2 rough paths.

One step of the scheme moves every particle by

    ``x ← x + u(s, x)·(t−s) + ε·σ_j(x) Z^j_{s,t} + (σ_i·∇σ_j)(x) 𝕫^{i,j}_{s,t}``

with ``ε`` the driver's sign convention (the second-level term carries ``ε²``,
so it never flips; solving with ``ε = −1`` is the same as flipping the first
level of the driver).  Guards reject steps whose noise displacement could wrap
around the torus or leave the small-threshold regime of the localized
estimates.

Drifts are pluggable: ``None``, a catalog :class:`~roughflow.fields.VectorField`,
a plain callable ``fn(t, positions)``, or time-stamped grid snapshots
evaluated by cubic interpolation (:class:`GridDrift`).  Grid drifts report
their sup norm and a sampled log-Lipschitz constant against the modulus γ.

Both forward solvers share one march loop.  Its per-node hook is where the
nonlocal solver freezes the Biot-Savart drift and keeps the grids of stored
nodes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import GridError, HypothesisError, StepSizeError
from .fields import (
    TWO_PI,
    VectorField,
    VorticityGrid,
    _CUBIC_UPSAMPLE,
    _PARTICLE_BLOCK,
    _cubic_velocity,
    _interp_spectral_lattice,
    _mod_two_pi,
    _padded_upsample,
    _read_header,
    _read_table,
    _torus_distances,
    _upsample_work,
    biot_savart,
    deposit,
    gamma,
)
from .roughpath import DriverPair, difference_variation_control, reverse_rough_path
from .variation import _as_times, _store_indices, _thin_indices, _time_tol, \
    locate_nodes

__all__ = [
    "ZeroDrift", "SteadyDrift", "CallableDrift", "GridDrift", "as_drift",
    "ParticleFlow", "save_particles_csv", "load_particles_csv",
    "save_particles_binary", "load_particles_binary",
    "FlowProblem", "davie_step", "FlowTrajectory", "solve_flow",
    "InverseFlowResult", "solve_inverse_flow",
    "solve_nonlocal_flow", "lagrangian_stability_bound",
    "LAGRANGIAN_STABILITY_CONSTANT",
]


def _wrap(x: np.ndarray) -> np.ndarray:
    out = _mod_two_pi(x)
    # x % 2π rounds 2π−ε up to 2π itself for tiny negative inputs; keep the
    # documented half-open fundamental domain [0, 2π)
    out[out >= TWO_PI] = 0.0
    return out


# ---------------------------------------------------------------------------
# drift wrappers
# ---------------------------------------------------------------------------

# Periodic Catmull-Rom can leave the node range: per axis the negative weight
# mass is at most f(1−f)/2 ≤ 1/8, so Σ|w| ≤ 5/4 per axis and ≤ 25/16 for the
# tensor product — interpolated drifts may exceed their grid max by that much.
_INTERP_OVERSHOOT = 25.0 / 16.0


def _log_lipschitz_ratio(u_x, u_y, d) -> float:
    """Sampled max of ``|u(x) − u(y)| / γ(d)`` over the pairs with
    ``d > 1e-9``; 0.0 when no pair is that far apart."""
    keep = d > 1e-9
    if not keep.any():
        return 0.0
    du = np.sqrt(((u_x - u_y) ** 2).sum(axis=-1))
    return float((du[keep] / gamma(d[keep])).max())


def _sample_norms(velocity, times) -> tuple[float, float]:
    """Sampled ``(sup |u|, log-Lipschitz ratio)`` of ``velocity(t, x)`` over
    512 fresh seeded pairs per time; half the partners sit at
    ``x + N(0, 0.05²)``, the short separations where γ bites, and half are
    uniform.  A non-finite sampled velocity makes both values NaN."""
    rng = np.random.default_rng(0)
    sup, lip = 0.0, 0.0
    for t in times:
        x = rng.uniform(0.0, TWO_PI, size=(512, 2))
        y = x + rng.normal(scale=0.05, size=x.shape)
        y[256:] = rng.uniform(0.0, TWO_PI, size=(256, 2))
        u_x = np.asarray(velocity(t, x), dtype=float)
        u_y = np.asarray(velocity(t, _wrap(y)), dtype=float)
        if not (np.isfinite(u_x).all() and np.isfinite(u_y).all()):
            return math.nan, math.nan
        sup = max(sup, float(np.abs(u_x).max()), float(np.abs(u_y).max()))
        lip = max(lip, _log_lipschitz_ratio(u_x, u_y, _torus_distances(x, y)))
    return sup, lip


class ZeroDrift:
    """No drift."""

    sup_norm = 0.0
    log_lipschitz = 0.0
    sup_overshoot = 1.0

    def velocity(self, t, positions):
        return np.zeros_like(np.asarray(positions, dtype=float))


class SteadyDrift:
    """A time-independent catalog field with analytic norms.

    The log-Lipschitz constant comes from ``|u(x)−u(y)| ≤ min(‖∇u‖d, 2‖u‖)``
    together with ``γ(d) ≥ d`` on ``d ≤ 1`` and ``γ ≥ 2/e`` past ``1/e``.
    """

    sup_overshoot = 1.0

    def __init__(self, field: VectorField):
        self.field = field
        self.sup_norm = field.c_norm(0)
        self.log_lipschitz = max(field.c_norm(1), math.e * field.c_norm(0))

    def velocity(self, t, positions):
        return self.field(np.asarray(positions, dtype=float))


class CallableDrift:
    """An arbitrary ``fn(t, positions) -> velocities`` drift.

    Unknown norms are estimated by sampling (and are therefore lower bounds);
    pass them explicitly when they are known.
    """

    sup_overshoot = 1.0

    def __init__(self, fn, sup_norm: float | None = None,
                 log_lipschitz: float | None = None, *, time_span=(0.0, 1.0)):
        self.fn = fn
        if sup_norm is None or log_lipschitz is None:
            sup, lip = _sample_norms(fn, np.linspace(time_span[0], time_span[1], 5))
            # sampled values are lower bounds; pad them so contract checks on
            # fresh samples do not trip on the sampling gap
            if sup_norm is None:
                sup_norm = 1.25 * sup + 1e-12
            if log_lipschitz is None:
                log_lipschitz = 1.25 * lip + 1e-12
        self.sup_norm = float(sup_norm)
        self.log_lipschitz = float(log_lipschitz)

    def velocity(self, t, positions):
        return np.asarray(self.fn(t, np.asarray(positions, dtype=float)), dtype=float)


class GridDrift:
    """Snapshot velocity fields ``u(t_k, ·)``, held constant on ``[t_k, t_{k+1})``.

    A single snapshot is treated as a steady field (no time range); with two
    or more, evaluation outside ``[t_0, t_last]`` is an error.

    Spatial evaluation is periodic cubic interpolation on a 4× FFT-upsampled
    grid, upsampled and wrap-padded once at construction: bitwise what
    :func:`~roughflow.fields.interpolate_velocity` gives on the snapshot.

    A march holds one drift: :func:`_freeze` refreezes a one-snapshot drift
    in place at each step node, refilling its padded grids and upsample
    scratch (about 1.6 MB at N = 64) instead of allocating a fresh drift's
    every step.

    ``sup_norm`` reports the grid max; between nodes the interpolant may
    exceed it by up to the documented overshoot factor, which contract checks
    take into account.
    """

    sup_overshoot = _INTERP_OVERSHOOT

    def __init__(self, times, snapshots):
        self.times = _as_times(times)
        snaps = [np.asarray(s, dtype=float) for s in snapshots]
        if len(snaps) != self.times.size:
            raise GridError(f"{len(snaps)} snapshots for {self.times.size} times")
        for s in snaps:
            if s.ndim != 3 or s.shape[0] != 2 or s.shape[1] != s.shape[2]:
                raise GridError("drift snapshots must have shape (2, N, N)")
        self.sup_norm = max(float(np.abs(s).max()) for s in snaps)
        self.log_lipschitz: float | None = None
        self._grids = [_padded_upsample(s, _CUBIC_UPSAMPLE) for s in snaps]
        self._work = None

    def _index(self, t: float) -> int:
        if self.times.size == 1:
            return 0  # a single snapshot is a steady field, valid at all times
        tol = _time_tol(self.times)
        if t < self.times[0] - tol or t > self.times[-1] + tol:
            raise GridError(f"drift interpolation out of range: t = {t:g} outside "
                            f"[{self.times[0]:g}, {self.times[-1]:g}]")
        return min(int(np.searchsorted(self.times, t + tol, side="right") - 1),
                   self.times.size - 1)

    def velocity(self, t, positions):
        return _cubic_velocity(self._grids[self._index(float(t))], positions)

    def measure_log_lipschitz(self) -> float:
        """Sampled sup of ``|u(t,x)−u(t,y)| / γ(d(x,y))`` at every snapshot
        time (:func:`_sample_norms`); cached on the instance."""
        self.log_lipschitz = _sample_norms(self.velocity, self.times)[1]
        return self.log_lipschitz


def _freeze(drift: GridDrift | None, t: float, snapshot) -> GridDrift:
    """``GridDrift([t], [snapshot])``, bitwise; when ``drift`` is given (a
    one-snapshot drift of the same grid shape) it is refrozen in place, its
    padded grids and upsample scratch refilled, and returned."""
    if drift is None:
        return GridDrift([t], [snapshot])
    snap = np.asarray(snapshot, dtype=float)
    if drift.times.size != 1:
        raise GridError("only a one-snapshot drift can be refrozen")
    if drift._work is None:
        drift._work = _upsample_work(snap.shape, _CUBIC_UPSAMPLE)
    _padded_upsample(snap, _CUBIC_UPSAMPLE, drift._grids[0], drift._work)
    drift.times = _as_times([t])
    drift.sup_norm = float(np.abs(snap).max())
    drift.log_lipschitz = None
    return drift


def as_drift(obj):
    """Normalize the accepted drift flavors to the drift interface."""
    if obj is None:
        return ZeroDrift()
    if isinstance(obj, (ZeroDrift, SteadyDrift, CallableDrift, GridDrift)):
        return obj
    if isinstance(obj, VectorField):
        return SteadyDrift(obj)
    if callable(obj):
        return CallableDrift(obj)
    raise GridError(f"cannot interpret {type(obj).__name__} as a drift")


# ---------------------------------------------------------------------------
# particle ensembles
# ---------------------------------------------------------------------------

class ParticleFlow:
    """Labeled particles with transported weights.

    ``labels`` are the initial positions (the Lagrangian markers), ``positions``
    the current ones (wrapped to ``[0, 2π)²``), and ``weights`` the carried
    field samples — immutable along trajectories, because transport moves
    values without changing them.
    """

    def __init__(self, labels, positions, weights, *, direction: str = "forward",
                 time: float = 0.0):
        self.labels = np.array(labels, dtype=float)
        self.positions = _wrap(np.array(positions, dtype=float))
        if self.labels.shape != self.positions.shape or self.labels.ndim != 2 \
                or self.labels.shape[1] != 2:
            raise GridError("labels and positions must both have shape (n, 2)")
        n = self.labels.shape[0]
        w = np.broadcast_to(np.asarray(weights, dtype=float).ravel(), (n,)).copy()
        w.flags.writeable = False
        self.weights = w
        if direction not in ("forward", "backward"):
            raise GridError(f"direction must be forward or backward, got {direction!r}")
        self.direction = direction
        self.time = float(time)

    @classmethod
    def lattice(cls, n_side: int, weight_source=0.0, *, time: float = 0.0,
                direction: str = "forward") -> "ParticleFlow":
        """A regular n×n lattice; weights sampled from a grid, callable, or scalar."""
        x = np.arange(n_side) * (TWO_PI / n_side)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        pos = np.stack([X1.ravel(), X2.ravel()], axis=-1)
        if isinstance(weight_source, VorticityGrid):
            w = _interp_spectral_lattice(weight_source.values, x).ravel()
        elif callable(weight_source):
            w = np.asarray(weight_source(pos[:, 0], pos[:, 1]), dtype=float)
        else:
            w = np.full(n_side * n_side, float(weight_source))
        return cls(pos, pos, w, time=time, direction=direction)

    @property
    def n_particles(self) -> int:
        return self.labels.shape[0]

    def with_positions(self, positions, *, time: float) -> "ParticleFlow":
        out = ParticleFlow.__new__(ParticleFlow)
        out.labels = self.labels
        out.positions = _wrap(np.asarray(positions, dtype=float))
        out.weights = self.weights
        out.direction = self.direction
        out.time = float(time)
        return out

    def deposit(self, resolution: int) -> VorticityGrid:
        return deposit(self.positions, self.weights, resolution)

    def displacement_from(self, reference=None) -> np.ndarray:
        """Torus distance of each particle from ``reference`` (default: labels)."""
        ref = self.labels if reference is None else np.asarray(reference, dtype=float)
        return _torus_distances(self.positions, ref)

    def __repr__(self):
        return (f"ParticleFlow(n={self.n_particles}, t={self.time:g}, "
                f"{self.direction})")


def save_particles_csv(flow: ParticleFlow, path: str) -> None:
    """Snapshot as CSV rows ``t, id, x1, x2, weight`` (ids in storage order)."""
    n = flow.n_particles
    data = np.column_stack([np.full(n, flow.time), np.arange(n),
                            flow.positions, flow.weights])
    np.savetxt(path, data, delimiter=",", header="t,id,x1,x2,weight",
               comments="", fmt=["%.17g", "%d", "%.17g", "%.17g", "%.17g"])


def load_particles_csv(path: str) -> ParticleFlow:
    """Load a CSV snapshot; ids must be contiguous in storage order.

    The column format does not carry labels, so the loaded positions become
    the labels (ids preserve lattice order, so callers that know the original
    layout can rebuild them).
    """
    with open(path) as fh:
        data = _read_table(path, fh.readlines()[1:], 5, "particle CSV")
    if not np.array_equal(data[:, 1], np.arange(data.shape[0])):
        raise GridError("particle ids must be 0..n-1 in order")
    pos = data[:, 2:4]
    return ParticleFlow(pos, pos, data[:, 4], time=float(data[0, 0]))


_BINARY_MAGIC = b"RFPB"


def save_particles_binary(flow: ParticleFlow, path: str) -> None:
    """Little-endian snapshot: header (magic, version, n, time, record width),
    then ``n`` float64 records ``(x1, x2, weight)``."""
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<IQdI", 1, flow.n_particles,
                             flow.time, 3))
        rec = np.column_stack([flow.positions, flow.weights]).astype("<f8")
        fh.write(rec.tobytes())


def load_particles_binary(path: str) -> ParticleFlow:
    with open(path, "rb") as fh:
        _, n, time, width = _read_header(fh, _BINARY_MAGIC, "<IQdI",
                                         "particle snapshot")
        if width != 3:
            raise GridError(f"unsupported particle snapshot record width {width}")
        rec = np.frombuffer(fh.read(), dtype="<f8")
    if rec.size != n * 3:
        raise GridError(f"truncated snapshot: expected {n * 3} floats, "
                        f"got {rec.size}")
    rec = rec.reshape(n, 3)
    pos = rec[:, :2]
    return ParticleFlow(pos, pos, rec[:, 2], time=time)


# ---------------------------------------------------------------------------
# flow problems and the Davie step
# ---------------------------------------------------------------------------

@dataclass
class FlowProblem:
    """A flow RDE: drift + rough driver + initial particles + step grid.

    The step grid is any grid inside the driver's span: each step reads the
    driver's Chen-composed ``(Z, 𝕫)`` over its window, however many driver
    nodes lie inside it, and :func:`davie_step`'s guards bound its size.
    """

    drift: object
    driver: DriverPair
    initial: ParticleFlow
    step_times: np.ndarray

    def __post_init__(self):
        self.drift = as_drift(self.drift)
        self.step_times = _as_times(self.step_times)
        rp = self.driver.rough_path
        tol = _time_tol(rp.times)
        if self.step_times[0] < rp.times[0] - tol or self.step_times[-1] > rp.times[-1] + tol:
            raise GridError("step grid leaves the driver's time span")

    @property
    def q_exponent(self) -> float:
        """``max(p, min(2.9, p + 1/4))`` for the driver's ``p``."""
        p = self.driver.rough_path.p_exponent
        return max(p, min(2.9, p + 0.25))

    def check(self):
        """Verify the drift contract by sampling.

        Draws the pairs of :func:`_sample_norms` (512 per time, half at
        ``x + N(0, 0.05²)`` and half uniform) at three times spanning the
        step grid.  Confirms the velocities are finite, that their sup stays
        within the declared sup norm (times the drift's interpolation
        overshoot), and that the sampled log-Lipschitz ratio
        ``|u(t,x)−u(t,y)|/γ(d)`` stays within 1.05 times the declared
        constant.  A :class:`GridDrift` declares no constant; its measured one
        (:meth:`GridDrift.measure_log_lipschitz`) is reported, and only its
        sup norm is checked.  Raises ``HypothesisError`` otherwise.
        """
        drift = self.drift
        if not np.isfinite(drift.sup_norm):
            raise HypothesisError("drift sup norm must be finite")
        declared = drift.log_lipschitz
        if declared is None:
            declared = drift.measure_log_lipschitz()
        sup, ratio = _sample_norms(drift.velocity, np.linspace(
            self.step_times[0], self.step_times[-1], 3))
        if not np.isfinite(sup):
            raise HypothesisError("drift produced non-finite velocities")
        # componentwise max, matching the C^0 convention of the catalog
        if sup > drift.sup_norm * drift.sup_overshoot * (1 + 1e-9) + 1e-12:
            raise HypothesisError("drift exceeds its declared sup norm")
        # a grid drift's constant is its own measurement: nothing to verify
        if not isinstance(drift, GridDrift) and ratio > declared * 1.05 + 1e-12:
            raise HypothesisError(
                f"drift violates its log-Lipschitz declaration: sampled "
                f"ratio {ratio:.3g} > declared {declared:.3g}")
        return {"sup_norm": drift.sup_norm, "log_lipschitz": declared}


def _second_level(sigmas, S: np.ndarray, pos: np.ndarray, A: np.ndarray) -> np.ndarray:
    """The step's second-level term ``Σ_{i,j,b} 𝕫^{ij} σ_i^b ∂_b σ_j^a`` at ``pos``.

    ``S`` stacks the fields' values at ``pos`` (shape ``(M,) + pos.shape``).
    𝕫 is contracted into σ first, ``SA_j = Σ_i 𝕫^{ij} σ_i``; then the term is
    the sum over ``j`` of ``(SA_j·∇)σ_j`` (:meth:`VectorField.derivative_along`,
    which a shear evaluates without building its gradient table), elementwise
    work with no three-operand contraction.
    """
    second = 0.0
    for j, f in enumerate(sigmas):
        SA = A[0, j] * S[0]
        for i in range(1, len(sigmas)):
            SA = SA + A[i, j] * S[i]
        second = second + f.derivative_along(pos, SA)
    return second


def davie_step(positions, s: float, t: float, problem: FlowProblem) -> np.ndarray:
    """One second-order step from ``s`` to ``t`` (consecutive step nodes).

    ``positions`` has shape ``(n, 2)``.  The particle-wise work (drift, σ
    values, the two driver terms, the wrap) runs in blocks of
    ``_PARTICLE_BLOCK`` particles, so its temporaries stay small enough to be
    reused from the heap rather than mapped afresh; each particle's
    arithmetic is the same in any block, so the result does not depend on
    the blocking.  Drifts are evaluated block by block, so a drift must be
    pointwise in the positions, as a velocity field is.

    Raises:
        StepSizeError: the noise displacement could wrap the torus
            (``Σ_j ‖σ_j‖_∞ |Z^j| > π``), or the step leaves the localized
            small-threshold regime (``‖σ‖_{C²}^{q/2} ω_Z(s,t)^{1/2} ≥ 1/2``),
            or it produced non-finite positions.
    """
    pos = np.asarray(positions, dtype=float)
    driver = problem.driver
    rp = driver.rough_path
    Z, A = rp.increment(s, t)

    sigmas = driver.sigma_fields
    reach = sum(f.c_norm(0) * abs(Z[j]) for j, f in enumerate(sigmas))
    if reach > math.pi:
        raise StepSizeError(
            f"noise displacement bound {reach:.3g} exceeds half the domain on "
            f"step [{s:g}, {t:g}]; refine the step grid",
            interval=(s, t), value=reach)
    p = rp.p_exponent
    omega_step = (float(np.sqrt((Z ** 2).sum())) ** p
                  + float(np.sqrt((A ** 2).sum())) ** (p / 2.0))
    guard = driver.sigma_norm(2) ** (problem.q_exponent / 2.0) * math.sqrt(omega_step)
    if guard >= 0.5:
        raise StepSizeError(
            f"step [{s:g}, {t:g}] leaves the small-threshold regime "
            f"(‖σ‖_C²^(q/2)·ω^(1/2) = {guard:.3g} ≥ 0.5); refine the step grid",
            interval=(s, t), value=guard)

    drift = problem.drift
    eps = driver.sign_convention
    out = np.empty(pos.shape)
    non_finite = 0
    for lo in range(0, pos.shape[0], _PARTICLE_BLOCK):
        x = pos[lo:lo + _PARTICLE_BLOCK]
        S = np.stack([f(x) for f in sigmas])
        step = x + drift.velocity(s, x) * (t - s)
        step = step + eps * np.einsum("j,j...->...", Z, S)
        step = step + _second_level(sigmas, S, x, A)
        finite = np.isfinite(step)
        if finite.all():
            out[lo:lo + _PARTICLE_BLOCK] = _wrap(step)
        else:
            non_finite += int((~finite).sum())
    if non_finite:
        raise StepSizeError(f"step [{s:g}, {t:g}] produced non-finite positions",
                            interval=(s, t), value=non_finite)
    return out


# ---------------------------------------------------------------------------
# forward solves
# ---------------------------------------------------------------------------

@dataclass
class FlowTrajectory:
    """Snapshots of one march; :func:`solve_nonlocal_flow` also fills
    ``grids`` with the ``(deposit, velocity)`` pair of each stored node."""

    times: np.ndarray
    flows: list
    grids: list | None = None

    @property
    def final(self) -> ParticleFlow:
        return self.flows[-1]

    def positions_array(self) -> np.ndarray:
        return np.stack([f.positions for f in self.flows])


def _march(problem: FlowProblem, store_times, at_node=None) -> FlowTrajectory:
    """The one Davie march over ``problem.step_times``, keeping snapshots.

    At every step node ``k`` it calls ``at_node(k, positions, stored)``; a
    non-``None`` return value becomes the drift held fixed over step ``k``.
    A ``StepSizeError`` from a step gets that step's index.
    """
    st = problem.step_times
    keep = _store_indices(st, store_times)
    initial = problem.initial
    pos = initial.positions.copy()
    flows = []
    for k in range(st.size):
        stored = k in keep
        drift = at_node(k, pos, stored) if at_node is not None else None
        if stored:
            flows.append(initial.with_positions(pos, time=st[k]))
        if k == st.size - 1:
            break
        if drift is not None:
            problem.drift = drift
        try:
            pos = davie_step(pos, st[k], st[k + 1], problem)
        except StepSizeError as exc:
            exc.step = k
            raise
    return FlowTrajectory(times=st[sorted(keep)], flows=flows)


def solve_flow(problem: FlowProblem, *, store_times=None,
               check: bool = True) -> FlowTrajectory:
    """March the Davie scheme over the step grid.

    ``store_times`` selects the snapshot times: ``None`` keeps endpoints only,
    ``"steps"`` keeps every step node, and an explicit array keeps its members
    (which must be step nodes).
    """
    if check:
        problem.check()
    return _march(problem, store_times)


# ---------------------------------------------------------------------------
# inverse flows
# ---------------------------------------------------------------------------

@dataclass
class InverseFlowResult:
    """Backward-solved inverse flow plus the measured round-trip defect."""

    flow: ParticleFlow
    composition_defect_mean: float
    composition_defect_max: float


def backward_problem(problem: FlowProblem, t: float | None = None) -> FlowProblem:
    """The time-reversed problem on ``[0, t−t₀]``: drift ``−u(t−s, ·)`` and the
    reversed driver (same sign convention), started from ``problem.initial``;
    solving it forward yields φ_t⁻¹.

    The backward drift is the same field reversed in time, so it carries the
    forward drift's sup norm, overshoot and log-Lipschitz constant (for a
    :class:`GridDrift`, the one :meth:`FlowProblem.check` measured).
    """
    st = problem.step_times
    t = float(st[-1]) if t is None else float(t)
    idx = int(locate_nodes(st, [t])[0])
    if idx == 0:
        raise GridError("inverse flow needs a positive time")
    fwd = problem.drift

    def bwd_velocity(s, positions):
        return -fwd.velocity(t - s, positions)

    drift = CallableDrift(bwd_velocity, sup_norm=fwd.sup_norm,
                          log_lipschitz=fwd.log_lipschitz,
                          time_span=(0.0, t - float(st[0])))
    drift.sup_overshoot = fwd.sup_overshoot
    driver = DriverPair(problem.driver.sigma_fields,
                        reverse_rough_path(problem.driver.rough_path, t),
                        sign_convention=problem.driver.sign_convention)
    start = problem.initial
    init = ParticleFlow(start.labels, start.positions, start.weights,
                        direction="backward", time=0.0)
    return FlowProblem(drift, driver, init, t - st[idx::-1])


def solve_inverse_flow(problem: FlowProblem, t: float | None = None
                       ) -> InverseFlowResult:
    """Solve backward to get ``φ_t⁻¹`` on the initial particles.

    ``t`` must be a step node and a node of the driver grid (the reversal
    pivots there).  The forward drift contract is checked once
    (:meth:`FlowProblem.check` over the whole step grid); the backward drift
    is the same field reversed in time, so the backward solves skip the
    check.  The forward flow is also run and pushed through the same
    backward problem, reporting the torus distance ``φ_t⁻¹(φ_t(x)) − x``
    over the ensemble.
    """
    problem.check()
    st = problem.step_times
    t_val = float(st[-1]) if t is None else float(t)
    bwd = backward_problem(problem, t_val)
    inverse = solve_flow(bwd, check=False).final
    inverse = ParticleFlow(problem.initial.positions, inverse.positions,
                           problem.initial.weights, direction="backward",
                           time=t_val)
    idx = int(locate_nodes(st, [t_val])[0])
    fwd_problem = FlowProblem(problem.drift, problem.driver, problem.initial,
                              st[:idx + 1])
    forward = solve_flow(fwd_problem, check=False).final
    bwd.initial = bwd.initial.with_positions(forward.positions, time=0.0)
    round_trip = solve_flow(bwd, check=False).final
    defect = round_trip.displacement_from(problem.initial.positions)
    return InverseFlowResult(inverse, float(defect.mean()), float(defect.max()))


# ---------------------------------------------------------------------------
# the nonlocal (mean-field) flow
# ---------------------------------------------------------------------------

def solve_nonlocal_flow(w0: VorticityGrid, driver: DriverPair, step_times, *,
                        particles_per_side: int | None = None,
                        store_times=None) -> FlowTrajectory:
    """Self-consistent flow whose drift is the Biot-Savart velocity of the
    transported vorticity.

    At each step node the march deposits the particle weights, solves for the
    Biot-Savart velocity of the mean-free deposit spectrally, freezes that
    field over the step as a cubic :class:`GridDrift` (one drift for the
    whole march, refrozen in place), and advances with :func:`davie_step`.
    ``grids`` keeps the ``(deposit, velocity)`` pair of every stored node
    (the last node's is computed only when stored).

    The march never calls :meth:`FlowProblem.check`: its problem starts from a
    zero drift, so the check would verify nothing, and the contract of the
    per-step Biot-Savart drift is what
    :func:`~roughflow.fields.kernel_log_lipschitz_check` measures.
    """
    N = w0.N
    n_side = 2 * N if particles_per_side is None else int(particles_per_side)
    st = _as_times(step_times)
    initial = ParticleFlow.lattice(n_side, w0)
    problem = FlowProblem(None, driver, initial, st)
    last = st.size - 1
    grids = []
    drift = None

    def freeze_drift(k, pos, stored):
        nonlocal drift
        if k == last and not stored:
            return None
        w = deposit(pos, initial.weights, N)
        centered = VorticityGrid(w.values - w.mean)  # keep Biot-Savart solvable
        u = biot_savart(centered)
        if stored:
            grids.append((w, u))
        if k == last:
            return None
        drift = _freeze(drift, st[k], u)
        return drift

    traj = _march(problem, store_times, freeze_drift)
    traj.grids = grids
    return traj


# ---------------------------------------------------------------------------
# stability diagnostics
# ---------------------------------------------------------------------------

#: Frozen empirical constant for the Lagrangian stability bound.  Calibrated
#: by perturbing initial data, diffusion fields, drivers, and drifts one at a
#: time on desk-scale Brownian problems (shear diffusion, cellular drift,
#: T = 1): the worst measured ratio of sup-distance to the unit-constant
#: right-hand side was 0.32, so the unit constant already dominates with a
#: threefold margin.
LAGRANGIAN_STABILITY_CONSTANT = 1.0


def lagrangian_stability_bound(times, positions1, positions2, driver1, driver2,
                               *, sigma_diff_c3: float = 0.0,
                               u_diff_sup: float = 0.0,
                               q: float | None = None,
                               constant: float = LAGRANGIAN_STABILITY_CONSTANT
                               ) -> float:
    """Right-hand side of the two-solution stability estimate.

    Given two particle trajectories on a common time grid (arrays of shape
    ``(n_times, n_particles, 2)``, same labels), evaluates

        ``C·( d(0) + ‖σ¹−σ²‖_{C³} + ω_{Z¹−Z²}(0,T)^{1/(2q)}
             + ‖u¹−u²‖_∞·T + ∫₀ᵀ γ(d(r)) dr )``

    where ``d(r)`` is the sup over particles of the torus distance at time
    ``r``.  The measured ``sup_r d(r)`` should be dominated by this with the
    frozen constant.  ``driver1``/``driver2`` may be :class:`DriverPair` or
    bare rough paths; the driver-difference variation is evaluated on a
    subgrid of at most 129 nodes (grid-subordinate variation only grows with
    refinement, so this makes the bound *smaller*, never easier to satisfy).
    """
    t = _as_times(times)
    a = np.asarray(positions1, dtype=float)
    b = np.asarray(positions2, dtype=float)
    if a.shape != b.shape or a.shape[0] != t.size:
        raise GridError("trajectories must share one time grid and particle set")
    d = _torus_distances(a, b).max(axis=-1)
    rp1 = getattr(driver1, "rough_path", driver1)
    rp2 = getattr(driver2, "rough_path", driver2)
    q = max(rp1.p_exponent, rp2.p_exponent) if q is None else float(q)
    rp_times = rp1.times[_thin_indices(rp1.times.size, 129)]
    omega_dz = difference_variation_control(rp1, rp2, rp_times)
    horizon = t[-1] - t[0]
    return constant * (d[0] + sigma_diff_c3
                       + omega_dz(rp_times[0], rp_times[-1]) ** (1.0 / (2.0 * q))
                       + u_diff_sup * horizon
                       + float(np.trapezoid(gamma(d), t)))
