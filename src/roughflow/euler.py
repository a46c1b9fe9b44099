"""Vorticity transport on the torus driven by a rough path, with diagnostics.

Three layers live here:

* :func:`solve_rough_euler` — the Lagrangian solver.  Vorticity is carried as
  particle weights (so its distribution function and sup norm are conserved
  exactly), the velocity is the Biot-Savart field of the deposited weights,
  and each step advances the particles with the second-order rough scheme
  from :mod:`roughflow.flow` under the advecting convention (the noise enters
  the characteristics as ``−σ dZ``).

* :func:`solve_viscous_reference` — a pseudo-spectral solver for the smoothed
  problem ``∂_t w + (u − σ Ż)·∇w = ν Δw`` with a piecewise-linear (hence
  classically differentiable) driver.  Transport is explicit, diffusion is
  integrated exactly via the heat multiplier, products are 2/3-dealiased.
  It cross-validates the Lagrangian solver at small viscosity.

* weak-formulation diagnostics — :func:`weak_remainder` expands increments of
  the solution against a frozen band-limited test family,

      w_{s,t}(ψ) = μ_{s,t}(ψ) + w_s((A¹* + A²*)_{s,t} ψ) + R_{s,t}(ψ),

  where ``μ`` is the time-quadrature of the nonlinear drift,
  ``A¹*_{s,t}ψ = −σ_j·∇ψ Z^j_{s,t}`` and
  ``A²*_{s,t}ψ = (σ_i·∇)(σ_j·∇ψ) 𝕫^{i,j}_{s,t}`` (adjoints use that the
  coefficient fields are divergence-free, so ``(σ·∇)* = −σ·∇``), and the
  remainder ``R`` must be third-order small: finite localized p/3-variation
  in the dual-norm proxy.  :func:`solution_variation_diagnostic` measures the
  p-variation of the solution itself in a negative-norm proxy and compares it
  against the a-priori control.

Everything is computed on immutable snapshots; runs persist to a directory of
CSV (or binary) field and particle files via :func:`save_run`.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (GridError, HypothesisError, QuadratureError,
                     StepSizeError)
from .fields import (VorticityGrid, biot_savart, deposit, interpolate,
                     interpolate_velocity, load_field_binary, load_field_csv,
                     mollify, nodes_1d, save_field_binary, save_field_csv,
                     wavenumbers)
from .flow import (ParticleFlow, load_particles_binary, load_particles_csv,
                   save_particles_binary, save_particles_csv,
                   solve_nonlocal_flow)
from .roughpath import DriverPair, RoughPath, variation_control
from .variation import Control, Localization, _thin_indices, localized_p_variation

__all__ = [
    "EulerState", "EulerTrajectory", "solve_rough_euler",
    "ViscousTrajectory", "solve_viscous_reference",
    "FourierTestFunctions", "WeakRemainder", "weak_remainder",
    "SolutionVariation", "solution_variation_diagnostic",
    "save_run", "load_run", "RunArchive",
]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# the Lagrangian solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EulerState:
    """One snapshot of the coupled system: particles, field, velocity.

    ``vorticity`` is the cloud-in-cell deposit of the particle weights (its
    mean equals the particle mean to rounding); ``velocity`` is the
    Biot-Savart field of the mean-free (optionally mollified) deposit — the
    same field the particles felt over the step starting at ``time``.
    """

    time: float
    particles: ParticleFlow
    vorticity: VorticityGrid
    velocity: np.ndarray
    driver: DriverPair = field(repr=False)

    @property
    def sup_norm(self) -> float:
        return self.vorticity.linf()

    @property
    def mean(self) -> float:
        return self.vorticity.mean


@dataclass
class EulerTrajectory:
    """Stored snapshots of a Lagrangian run plus conservation diagnostics.

    ``initial_sup``/``initial_mean`` are the particle-weight sup and mean —
    the exactly conserved quantities.  ``conservation_drift`` is the largest
    deviation of a deposited-field mean from ``initial_mean`` over the run;
    ``sup_excess`` the largest relative overshoot of a deposited sup norm
    above ``initial_sup`` (deposition clumping; zero for a perfect lattice).
    """

    states: list
    driver: DriverPair
    step_times: np.ndarray
    initial_sup: float
    initial_mean: float
    conservation_drift: float
    sup_excess: float

    @property
    def times(self) -> np.ndarray:
        return np.asarray([s.time for s in self.states])

    @property
    def final(self) -> EulerState:
        return self.states[-1]

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, k) -> EulerState:
        return self.states[k]

    def __iter__(self):
        return iter(self.states)

    def vorticity_values(self) -> np.ndarray:
        """Stacked ``(n_snapshots, N, N)`` array of deposited fields."""
        return np.stack([s.vorticity.values for s in self.states])

    def velocity_values(self) -> np.ndarray:
        return np.stack([s.velocity for s in self.states])


def solve_rough_euler(w0: VorticityGrid, driver: DriverPair, step_times, *,
                      resolution: int | None = None,
                      particles_per_side: int | None = None,
                      interpolation: str = "cubic",
                      mollify_eta: float | None = None,
                      store_times=None, q_exponent: float | None = None,
                      deposition_tol: float = 0.25) -> EulerTrajectory:
    """Advance bounded vorticity along the rough characteristics.

    Per step: deposit particle weights → subtract the (transport-invariant)
    mean → optionally mollify → Biot-Savart velocity → freeze that field and
    take one rough step of the particles.  The mean only leaves the velocity
    solve; the particles keep carrying it, so every deposited snapshot has
    the full mean back.

    Args:
        w0: initial vorticity (any bounded grid sample; particle weights are
            read off its trigonometric interpolant).
        driver: coefficient fields + level-2 path; ``sign_convention`` must
            be ``-1`` (the advecting form).
        step_times: particle step grid; must refine the driver's nodes.
        store_times: ``None`` (endpoints), ``"steps"`` (every step node, what
            the weak-formulation diagnostics want), or an array of step nodes.
        deposition_tol: allowed relative overshoot of deposited sup norms
            over the particle sup (cloud-in-cell clumping allowance).

    Raises:
        HypothesisError: wrong sign convention, mean drift beyond 1e-8, or
            sup-norm overshoot beyond ``deposition_tol``.
    """
    if driver.sign_convention != -1:
        raise HypothesisError(
            "solve_rough_euler integrates the advecting convention; "
            "build the driver with sign_convention=-1")
    N = w0.N if resolution is None else int(resolution)
    traj = solve_nonlocal_flow(
        w0, driver, step_times, particles_per_side=particles_per_side,
        resolution=N, interpolation=interpolation, mollify_eta=mollify_eta,
        store_times=store_times, q_exponent=q_exponent)

    initial_sup = float(np.abs(traj.flows[0].weights).max())
    initial_mean = float(traj.flows[0].weights.mean())
    states, drift, excess = [], 0.0, 0.0
    for flow in traj.flows:
        w = deposit(flow.positions, flow.weights, N)
        centered = VorticityGrid(w.values - w.mean)
        if mollify_eta is not None:
            centered = mollify(centered, mollify_eta)
        u = biot_savart(centered)
        states.append(EulerState(time=float(flow.time), particles=flow,
                                 vorticity=w, velocity=u, driver=driver))
        drift = max(drift, abs(w.mean - initial_mean))
        if initial_sup > 0:
            excess = max(excess, w.linf() / initial_sup - 1.0)
    if drift > 1e-8:
        raise HypothesisError(
            f"deposited mean drifted by {drift:.3e} (tolerance 1e-8)")
    if excess > deposition_tol:
        raise HypothesisError(
            f"deposited sup norm overshoots the particle sup by "
            f"{excess:.1%} (allowance {deposition_tol:.1%})")
    return EulerTrajectory(states=states, driver=driver,
                           step_times=np.asarray(step_times, dtype=float),
                           initial_sup=initial_sup, initial_mean=initial_mean,
                           conservation_drift=drift, sup_excess=max(excess, 0.0))


# ---------------------------------------------------------------------------
# the viscous reference solver
# ---------------------------------------------------------------------------

@dataclass
class ViscousTrajectory:
    times: np.ndarray
    grids: list
    nu: float
    sup_excess: float     # max over steps of ‖w‖_∞/‖w₀‖_∞ − 1
    cfl_margin: float     # max over steps of |u − σŻ|_∞ dt / h
    step_count: int

    @property
    def final(self) -> VorticityGrid:
        return self.grids[-1]


def _path_nodes(path):
    if isinstance(path, DriverPair):
        path = path.rough_path
    if isinstance(path, RoughPath):
        return path.times, path.values
    times, values = path
    return np.asarray(times, dtype=float), np.asarray(values, dtype=float)


def solve_viscous_reference(w0: VorticityGrid, sigmas, path, nu: float, *,
                            dt: float, store_times=None,
                            resolution: int | None = None,
                            dealias: bool = True,
                            max_principle_tol: float = 0.05) -> ViscousTrajectory:
    """Pseudo-spectral solve of ``∂_t w + (u − σ_j Ż^j)·∇w = ν Δw``.

    The driver is piecewise linear between its nodes, so ``Ż`` is constant on
    each segment; the step grid subdivides every segment into pieces of
    length at most ``dt`` (kinks are never crossed mid-step).  Each step is a
    Heun update in the integrating-factor variable: transport explicit and
    second order, diffusion exact through ``exp(−ν|k|²h)``.  Nonlinear
    products are formed on the grid from 2/3-truncated spectra.

    The mean of ``w`` is invariant for this equation and is carried exactly:
    the mean-free part is evolved and the constant re-added on output.

    Args:
        path: a :class:`RoughPath`, a ``(times, values)`` pair, or a
            :class:`DriverPair` (its path is used; pass its fields as
            ``sigmas``).
        store_times: ``None`` (endpoints), ``"steps"``, or an array that must
            hit path nodes / step boundaries.

    Raises:
        HypothesisError: ``ν ≤ 0``, or a coefficient/path dimension mismatch.
        StepSizeError: CFL violation ``|u − σŻ|_∞ dt > 2π/N``, or a
            maximum-principle overshoot beyond ``max_principle_tol`` (both
            mean the step or grid is too coarse for the run).
    """
    if nu <= 0:
        raise HypothesisError(f"viscosity must be positive, got nu = {nu}")
    tz, vz = _path_nodes(path)
    if vz.ndim == 1:
        vz = vz[:, None]
    sigmas = tuple(sigmas)
    if len(sigmas) != vz.shape[1]:
        raise HypothesisError(f"{len(sigmas)} coefficient fields for a "
                              f"{vz.shape[1]}-component driver")
    if resolution is not None and int(resolution) != w0.N:
        N = int(resolution)
        x = nodes_1d(N)
        pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
        w0 = VorticityGrid(interpolate(w0, pts, method="spectral").reshape(N, N))
    N = w0.N
    h_grid = TWO_PI / N
    k1, k2 = wavenumbers(N)
    ksq = k1 ** 2 + k2 ** 2
    inv_ksq = np.zeros_like(ksq)
    np.divide(1.0, ksq, out=inv_ksq, where=ksq > 0)
    if dealias:
        cut = N // 3
        mask = (np.abs(k1) <= cut) & (np.abs(k2) <= cut)
    else:
        mask = np.ones_like(ksq, dtype=bool)

    x = nodes_1d(N)
    pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)
    sig_grid = np.stack([np.moveaxis(np.asarray(s(pts), dtype=float), -1, 0)
                         for s in sigmas])              # (M, 2, N, N)

    # step grid: each driver segment chopped into <= dt pieces
    pieces, slopes = [tz[:1]], []
    for k in range(tz.size - 1):
        seg = tz[k + 1] - tz[k]
        n_sub = max(1, int(math.ceil(seg / dt - 1e-12)))
        pieces.append(np.linspace(tz[k], tz[k + 1], n_sub + 1)[1:])
        slopes.extend([(vz[k + 1] - vz[k]) / seg] * n_sub)
    steps = np.concatenate(pieces)

    if store_times is None:
        keep = {0, steps.size - 1}
    elif isinstance(store_times, str) and store_times == "steps":
        keep = set(range(steps.size))
    else:
        wanted = np.asarray(store_times, dtype=float)
        idx = np.searchsorted(steps, wanted)
        idx = np.clip(idx, 0, steps.size - 1)
        near = np.where(idx > 0,
                        np.abs(steps[np.maximum(idx - 1, 0)] - wanted) <
                        np.abs(steps[idx] - wanted), False)
        idx = np.where(near, idx - 1, idx)
        off = np.abs(steps[idx] - wanted)
        if off.max() > 1e-9 * max(1.0, steps[-1] - steps[0]):
            raise GridError(f"store time {wanted[int(off.argmax())]:g} is not "
                            f"a step boundary")
        keep = set(int(i) for i in idx)

    mean0 = w0.mean
    sup0 = max(w0.linf(), 1e-300)
    W = np.fft.fft2(w0.values - mean0)

    def nonlinear(Wh, zdot):
        Wd = Wh * mask
        g1 = np.fft.ifft2(1j * k1 * Wd).real
        g2 = np.fft.ifft2(1j * k2 * Wd).real
        psi_hat = -Wd * inv_ksq
        a1 = np.fft.ifft2(-1j * k2 * psi_hat).real
        a2 = np.fft.ifft2(1j * k1 * psi_hat).real
        a1 -= np.einsum("m,mnk->nk", zdot, sig_grid[:, 0])
        a2 -= np.einsum("m,mnk->nk", zdot, sig_grid[:, 1])
        out = -np.fft.fft2(a1 * g1 + a2 * g2) * mask
        out[0, 0] = 0.0
        vmax = float(np.sqrt(a1 ** 2 + a2 ** 2).max())
        return out, vmax

    times_out, grids, cfl_margin, excess = [], [], 0.0, 0.0

    def maybe_store(i):
        if i in keep:
            times_out.append(steps[i])
            grids.append(VorticityGrid(np.fft.ifft2(W).real + mean0))

    maybe_store(0)
    for i in range(steps.size - 1):
        h = steps[i + 1] - steps[i]
        zdot = slopes[i]
        heat = np.exp(-nu * ksq * h)
        rate1, vmax = nonlinear(W, zdot)
        margin = vmax * h / h_grid
        cfl_margin = max(cfl_margin, margin)
        if margin > 1.0:
            raise StepSizeError(
                f"CFL violation at t = {steps[i]:g}: |u - sigma*zdot|_inf*dt "
                f"= {vmax * h:.3e} exceeds the grid spacing {h_grid:.3e}")
        predictor = heat * (W + h * rate1)
        rate2, _ = nonlinear(predictor, zdot)
        W = heat * W + 0.5 * h * (heat * rate1 + rate2)
        w_now = np.fft.ifft2(W).real + mean0
        overshoot = float(np.abs(w_now).max()) / sup0 - 1.0
        excess = max(excess, overshoot)
        if overshoot > max_principle_tol:
            raise StepSizeError(
                f"maximum principle violated at t = {steps[i + 1]:g}: "
                f"sup norm overshoots by {overshoot:.1%} "
                f"(allowance {max_principle_tol:.1%})")
        maybe_store(i + 1)
    return ViscousTrajectory(times=np.asarray(times_out), grids=grids, nu=nu,
                             sup_excess=max(excess, 0.0),
                             cfl_margin=cfl_margin,
                             step_count=steps.size - 1)


# ---------------------------------------------------------------------------
# the frozen dual test family
# ---------------------------------------------------------------------------

# Twelve wavevectors, four per octave of |k| in [1,2], (2,4], (4,8]: axis
# modes, diagonals, and mixed vectors so that anisotropic transport cannot
# hide from the family.  Each appears with both a cosine and a sine phase.
_FAMILY_WAVEVECTORS = (
    (1, 0), (0, 1), (1, 1), (2, 0),
    (2, 1), (0, 3), (2, 2), (4, 0),
    (4, 1), (0, 6), (4, 4), (8, 0),
)


class FourierTestFunctions:
    """A frozen band-limited family of test functions with dual-norm data.

    For each wavevector the family holds ``cos(k·x)`` and ``sin(k·x)`` on the
    grid, their analytic gradients, and two normalizations:

    * ``w1_norms`` — ``max(1, |k₁|, |k₂|)``, the W^{1,∞} norm; dividing
      pairings by it yields the negative-first-order dual proxy used for the
      solution's variation.
    * ``w31_norms`` — ``Σ_{|α|≤3} |k^α| · (2π)² · (2/π)``, the W^{3,1} norm
      (every trig derivative has L¹ norm ``|k^α|(2π)²·2/π``); dividing by it
      yields the proxy for the remainder's third-order dual norm.

    The proxy is a genuine lower bound of each dual norm and is reproducible:
    the family never changes between runs.
    """

    def __init__(self, resolution: int, wavevectors=None):
        ks = np.asarray(wavevectors if wavevectors is not None
                        else _FAMILY_WAVEVECTORS, dtype=int)
        if ks.ndim != 2 or ks.shape[1] != 2 or ks.shape[0] == 0:
            raise GridError("wavevectors must be a nonempty (m, 2) array")
        if np.any(np.all(ks == 0, axis=1)):
            raise GridError("the zero mode is not a test function "
                            "(pairings would see only the invariant mean)")
        N = int(resolution)
        if np.abs(ks).max() >= N // 2:
            raise GridError(f"family needs |k| < N/2 = {N // 2} to be "
                            f"alias-free on the grid")
        self.resolution = N
        self._ks = ks.astype(float)
        x = nodes_1d(N)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        theta = ks[:, 0, None, None] * X1 + ks[:, 1, None, None] * X2
        cos, sin = np.cos(theta), np.sin(theta)
        # layout: all cosines, then all sines
        self.wavevectors = np.concatenate([ks, ks])          # (F, 2)
        self.values = np.concatenate([cos, sin])             # (F, N, N)
        grad_cos = np.stack([-ks[:, 0, None, None] * sin,
                             -ks[:, 1, None, None] * sin], axis=1)
        grad_sin = np.stack([ks[:, 0, None, None] * cos,
                             ks[:, 1, None, None] * cos], axis=1)
        self.gradients = np.concatenate([grad_cos, grad_sin])  # (F, 2, N, N)
        self.labels = ([f"cos({a},{b})" for a, b in ks]
                       + [f"sin({a},{b})" for a, b in ks])
        kk = np.abs(self.wavevectors).astype(float)
        self.w1_norms = np.maximum(1.0, kk.max(axis=1))
        powers = [(a, b) for a in range(4) for b in range(4) if a + b <= 3]
        self.w31_norms = (TWO_PI ** 2 * (2.0 / math.pi)
                          * sum(kk[:, 0] ** a * kk[:, 1] ** b
                                for a, b in powers))
        self._quad = (TWO_PI / N) ** 2

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def pair(self, w) -> np.ndarray:
        """Grid quadrature of ``∫ w ψ_f dx`` for every family member."""
        vals = w.values if isinstance(w, VorticityGrid) else np.asarray(w)
        return self._quad * np.tensordot(self.values, vals, axes=([1, 2], [0, 1]))

    # -- point evaluation (exact trigonometry, used for particle quadrature) --

    def at_points(self, points) -> np.ndarray:
        """``ψ_f`` at arbitrary torus points, shape ``(F, n)``."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        theta = pts @ self._ks.T                             # (n, K)
        return np.concatenate([np.cos(theta).T, np.sin(theta).T])

    def gradients_at(self, points) -> np.ndarray:
        """``∇ψ_f`` at points, shape ``(F, 2, n)``."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        theta = pts @ self._ks.T
        k = self._ks.T[None, :, :]                           # (1, 2, K)
        gc = -np.sin(theta)[:, None, :] * k                  # (n, 2, K)
        gs = np.cos(theta)[:, None, :] * k
        return np.concatenate([gc.transpose(2, 1, 0),
                               gs.transpose(2, 1, 0)])

    def hessians_at(self, points) -> np.ndarray:
        """``∂_a∂_b ψ_f`` at points, shape ``(F, 2, 2, n)``."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        theta = pts @ self._ks.T
        kk = -self._ks.T[:, None, :] * self._ks.T[None, :, :]   # (2, 2, K)
        hc = np.cos(theta)[:, None, None, :] * kk            # (n, 2, 2, K)
        hs = np.sin(theta)[:, None, None, :] * kk
        return np.concatenate([hc.transpose(3, 1, 2, 0),
                               hs.transpose(3, 1, 2, 0)])

    def pair_particles(self, positions, weights) -> np.ndarray:
        """Particle quadrature of ``∫ w ψ_f dx``: the pushforward measure
        ``Σ_i w_i ψ_f(x_i) · (2π)²/n_p`` — exact for a transported lattice,
        free of deposition error."""
        w = np.asarray(weights, dtype=float).ravel()
        psi = self.at_points(positions)
        return (TWO_PI ** 2 / w.size) * (psi @ w)

    def flux_pair_particles(self, positions, weights, vectors) -> np.ndarray:
        """Particle quadrature of ``∫ w v·∇ψ_f dx`` for a vector sample
        ``vectors`` of shape ``(n, 2)`` given at the particle positions."""
        w = np.asarray(weights, dtype=float).ravel()
        v = np.asarray(vectors, dtype=float).reshape(-1, 2)
        g = self.gradients_at(positions)                     # (F, 2, n)
        return (TWO_PI ** 2 / w.size) * np.einsum(
            "fan,na,n->f", g, v, w)

    def transport_at(self, sigmas, points) -> np.ndarray:
        """``σ_j·∇ψ_f`` at points, shape ``(M, F, n)`` (all analytic)."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        g = self.gradients_at(pts)                           # (F, 2, n)
        out = np.empty((len(sigmas), self.size, pts.shape[0]))
        for j, sig in enumerate(sigmas):
            sg = np.asarray(sig(pts), dtype=float)           # (n, 2)
            out[j] = np.einsum("fan,na->fn", g, sg)
        return out

    def second_transport_at(self, sigmas, points) -> np.ndarray:
        """``σ_i·∇(σ_j·∇ψ_f)`` at points, shape ``(M, M, F, n)``.

        Expanded by the product rule with the analytic field gradients and
        the family's Hessians — no grid differentiation anywhere:
        ``∂_a(σ_j·∇ψ) = ∂_a σ_j^b ∂_b ψ + σ_j^b ∂_a∂_b ψ``.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        g = self.gradients_at(pts)
        h = self.hessians_at(pts)                            # (F, 2, 2, n)
        M = len(sigmas)
        sg = [np.asarray(s(pts), dtype=float) for s in sigmas]      # (n, 2)
        dg = [np.asarray(s.gradient(pts), dtype=float) for s in sigmas]
        out = np.empty((M, M, self.size, pts.shape[0]))
        for j in range(M):
            # dg[j][n, b, a] = ∂_a σ_j^b  (gradient convention [..., comp, axis])
            inner = (np.einsum("nba,fbn->fan", dg[j], g)
                     + np.einsum("nb,fabn->fan", sg[j], h))
            for i in range(M):
                out[i, j] = np.einsum("na,fan->fn", sg[i], inner)
        return out


# ---------------------------------------------------------------------------
# weak-formulation diagnostics
# ---------------------------------------------------------------------------

def _default_localization(omega_z: Control, times: np.ndarray, p: float,
                          threshold: float | None) -> Localization:
    omega = omega_z + Control.interval_power(times, p)
    if threshold is None:
        steps = np.asarray(omega(times[:-1], times[1:]))
        threshold = 4.0 * float(steps.max()) if steps.max() > 0 else 1.0
    return Localization(omega, threshold)


@dataclass
class WeakRemainder:
    """Per-pair weak-formulation ledger over a snapshot grid.

    All tables are indexed ``[i, j]`` over snapshot times, with a trailing
    family axis where noted.  ``mu_values`` is the full antisymmetric table
    ``c_j − c_i`` of the cumulative drift; every other table is populated on
    the upper triangle ``i < j`` only and is zero on and below the diagonal.

    The remainder ``R = w_{s,t}(ψ) − μ − w_s(A*ψ)`` is normalized by the
    family's W^{3,1} norms into ``remainder_norms`` — the dual-norm proxy
    whose localized p/3-variation the solution concept requires to be
    finite.

    ``additivity_defect`` is the worst violation of the exact cocycle
    identity ``δR_{s,u,t}(ψ) = w_{s,u}(A²*_{u,t}ψ) + w†_{s,u}(A¹*_{u,t}ψ)``
    (with ``w† = w_{s,u} − w_s A¹*_{s,u}``) on sampled triples; it involves
    no analysis, only Chen's relation and telescoping, so it should sit at
    rounding level — a genuine self-test of the assembled tables.

    ``scaling_slope`` regresses ``log remainder_norms`` on the logarithm of
    the a-priori control bound; third-order smallness predicts a slope of
    ``3/p``.
    """

    times: np.ndarray
    test_functions: FourierTestFunctions
    mu_values: np.ndarray          # (n, n, F)
    driver_terms: np.ndarray       # (n, n, F)
    remainder_values: np.ndarray   # (n, n, F)
    remainder_norms: np.ndarray    # (n, n)
    variation_power: float
    p_exponent: float
    localization: Localization
    bound_values: np.ndarray       # (n, n) a-priori control per pair
    scaling_slope: float
    additivity_defect: float
    quadrature_error: float

    @property
    def variation_norm(self) -> float:
        """The localized p/3-variation as a norm (the table stores Σ|R|^{p/3})."""
        return self.variation_power ** (3.0 / self.p_exponent)


def weak_remainder(trajectory: EulerTrajectory, *,
                   family: FourierTestFunctions | None = None,
                   localization: Localization | None = None,
                   threshold: float | None = None,
                   quadrature_tol: float = 0.05,
                   grid_cap: int = 129,
                   interpolation: str = "cubic") -> WeakRemainder:
    """Expand solution increments against the dual family; isolate the remainder.

    Every pairing is a particle quadrature of the transported measure
    ``w_t = flow_t # w_0`` — the representation the Lagrangian solver evolves
    exactly — so the tables see the time structure of the solution rather
    than the ``O(h²)`` deposition error of the grid snapshots (which would
    bury the third-order remainder at any affordable resolution).  The
    velocity still comes from the stored grids, interpolated to the
    particles.

    Needs densely stored snapshots (``store_times="steps"``): the drift term
    ``μ_{s,t}(ψ) = ∫ₛᵗ ∫ w u·∇ψ dx dr`` is a composite trapezoid over stored
    times, cross-checked by Richardson extrapolation against its half-grid
    value.

    Raises:
        QuadratureError: the half-grid trapezoid disagrees beyond
            ``quadrature_tol`` (relative) — store snapshots more densely.
        GridError: fewer than three snapshots.
    """
    if len(trajectory) < 3:
        raise GridError("weak-formulation diagnostics need at least three "
                        "stored snapshots (use store_times='steps')")
    rp = trajectory.driver.rough_path
    p = rp.p_exponent
    sigmas = trajectory.driver.sigma_fields
    idx = _thin_indices(len(trajectory), grid_cap)
    times = trajectory.times[idx]
    n = times.size
    states = [trajectory[int(k)] for k in idx]
    N = states[0].vorticity.N
    fam = FourierTestFunctions(N) if family is None else family
    F = fam.size

    # particle pairings of every snapshot with the family and its transports
    weights = states[0].particles.weights
    P = np.empty((n, F))
    G = np.empty((n, F))
    M = len(sigmas)
    PS = np.empty((n, M, F))
    PSS = np.empty((n, M, M, F))
    quad_p = TWO_PI ** 2 / weights.size
    for k, s in enumerate(states):
        pos = s.particles.positions
        w = s.particles.weights
        P[k] = fam.pair_particles(pos, w)
        u_p = interpolate_velocity(s.velocity, pos, method=interpolation)
        G[k] = fam.flux_pair_particles(pos, w, u_p)
        PS[k] = quad_p * np.einsum("jfn,n->jf", fam.transport_at(sigmas, pos), w)
        PSS[k] = quad_p * np.einsum("ijfn,n->ijf",
                                    fam.second_transport_at(sigmas, pos), w)

    # composite-trapezoid cumulative drift, exactly additive over the grid
    dt_steps = np.diff(times)
    cum = np.vstack([np.zeros(F),
                     np.cumsum(0.5 * dt_steps[:, None] * (G[:-1] + G[1:]), axis=0)])
    mu = cum[None, :, :] - cum[:, None, :]                            # μ[i,j] = c_j − c_i
    idx_half = np.arange(0, n, 2)
    if idx_half[-1] != n - 1:
        idx_half = np.r_[idx_half, n - 1]
    th, Gh = times[idx_half], G[idx_half]
    cum_h = np.vstack([np.zeros(F),
                       np.cumsum(0.5 * np.diff(th)[:, None] * (Gh[:-1] + Gh[1:]), axis=0)])
    mu_scale = max(float(np.abs(mu).max()), 1e-12 * max(1.0, float(np.abs(G).max())))
    quad_err = float(np.abs(cum_h - cum[idx_half]).max()) / 3.0
    if n >= 5 and quad_err > quadrature_tol * mu_scale:
        raise QuadratureError(
            f"time quadrature of the drift is under-resolved: Richardson "
            f"disagreement {quad_err:.3e} vs scale {mu_scale:.3e} "
            f"(store snapshots more densely)")

    dZ, AA = rp.pair_tables(times)
    driver_terms = (-np.einsum("ijm,imf->ijf", dZ, PS)
                    + np.einsum("ijab,iabf->ijf", AA, PSS))
    dP = P[None, :, :] - P[:, None, :]
    R = dP - mu - driver_terms
    iu = np.triu_indices(n, k=0)
    keep_upper = np.zeros((n, n, F))
    keep_upper[iu] = R[iu]
    R = keep_upper
    remainder_norms = np.abs(R / fam.w31_norms).max(axis=-1)
    remainder_norms = np.triu(remainder_norms)

    omega_z = variation_control(rp, times)
    loc = localization if localization is not None else _default_localization(
        omega_z, times, p, threshold)
    var_power = localized_p_variation(increments=remainder_norms, p=p / 3.0,
                                      loc=loc, times=times)

    # a-priori control: sup^{p/3} ω_A + sup^{2p/3} |t−s|^{p/3}(ω_A^{1/3}+ω_A^{2/3})
    kappa = max(1.0, trajectory.driver.sigma_norm(3)) ** 2
    Ti, Tj = np.meshgrid(times, times, indexing="ij")
    omega_a = np.zeros((n, n))
    ii, jj = np.triu_indices(n, k=1)
    omega_a[ii, jj] = kappa ** p * np.asarray(omega_z(times[ii], times[jj]))
    # the particle sup is the exactly conserved ‖w‖_∞ (rearrangement invariance)
    sup_w = max(float(np.abs(weights).max()), 1e-300)
    gap = np.triu(Tj - Ti, k=1)
    bound = (sup_w ** (p / 3.0) * omega_a
             + sup_w ** (2 * p / 3.0) * gap ** (p / 3.0)
             * (omega_a ** (1.0 / 3.0) + omega_a ** (2.0 / 3.0)))

    mask = loc.mask(times)
    sel = mask & (remainder_norms > 1e-13 * max(remainder_norms.max(), 1e-300)) \
        & (bound > 0) & np.triu(np.ones((n, n), dtype=bool), k=1)
    if sel.sum() >= 2:
        slope = float(np.polyfit(np.log(bound[sel]),
                                 np.log(remainder_norms[sel]), 1)[0])
    else:
        slope = float("nan")

    # cocycle self-test on a thinned triple set (exact identity, see class doc)
    tri = _thin_indices(n, 12)
    defect = 0.0
    for a_pos, i in enumerate(tri):
        for j in tri[a_pos + 1:]:
            for k in tri[np.searchsorted(tri, j) + 1:]:
                delta = R[i, k] - R[i, j] - R[j, k]
                pred = (np.einsum("ab,abf->f", AA[j, k], PSS[j] - PSS[i])
                        - np.einsum("m,mf->f", dZ[j, k], PS[j] - PS[i])
                        - np.einsum("a,b,abf->f", dZ[i, j], dZ[j, k], PSS[i]))
                defect = max(defect, float(np.abs(delta - pred).max()))

    return WeakRemainder(times=times, test_functions=fam, mu_values=mu,
                         driver_terms=driver_terms, remainder_values=R,
                         remainder_norms=remainder_norms,
                         variation_power=float(var_power), p_exponent=p,
                         localization=loc, bound_values=bound,
                         scaling_slope=slope, additivity_defect=defect,
                         quadrature_error=quad_err)


@dataclass
class SolutionVariation:
    """Measured negative-norm variation of the solution vs its a-priori bound.

    ``omega_w[i, j]`` is the per-pair variation contribution
    ``(sup_f |w_{t_i,t_j}(ψ_f)| / ‖ψ_f‖_{W^{1,∞}})^p``; ``bound_values`` is
    ``(1 + ‖w‖_∞)^{2p} (|t−s|^p + ω_A + ω_♮)`` per pair, and ``constant`` the
    smallest K making ``omega_w ≤ K·bound`` on admissible pairs.
    """

    times: np.ndarray
    omega_w: np.ndarray
    bound_values: np.ndarray
    constant: float
    variation_power: float
    p_exponent: float

    @property
    def variation_norm(self) -> float:
        return self.variation_power ** (1.0 / self.p_exponent)


def solution_variation_diagnostic(trajectory: EulerTrajectory, *,
                                  family: FourierTestFunctions | None = None,
                                  localization: Localization | None = None,
                                  threshold: float | None = None,
                                  remainder: WeakRemainder | None = None,
                                  grid_cap: int = 129) -> SolutionVariation:
    """p-variation of the solution in the first-order dual proxy.

    Reuses the remainder ledger (or computes it) for the ω_♮ part of the
    control; purely diagnostic — never raises on a large constant.
    """
    if remainder is None:
        remainder = weak_remainder(trajectory, family=family,
                                   localization=localization,
                                   threshold=threshold, grid_cap=grid_cap)
    fam = remainder.test_functions
    times = remainder.times
    n = times.size
    rp = trajectory.driver.rough_path
    p = rp.p_exponent
    idx = _thin_indices(len(trajectory), grid_cap)
    if idx.size != n or not np.array_equal(trajectory.times[idx], times):
        raise GridError("the remainder ledger was computed on a different "
                        "snapshot subgrid; pass matching grid_cap")
    states = [trajectory[int(k)] for k in idx]
    P = np.stack([fam.pair_particles(s.particles.positions,
                                     s.particles.weights) for s in states])
    dP = P[None, :, :] - P[:, None, :]
    D = np.triu(np.abs(dP / fam.w1_norms).max(axis=-1))
    loc = remainder.localization
    var_power = localized_p_variation(increments=D, p=p, loc=loc, times=times)

    kappa = max(1.0, trajectory.driver.sigma_norm(3)) ** 2
    omega_z = variation_control(rp, times)
    omega_a = np.zeros((n, n))
    ii, jj = np.triu_indices(n, k=1)
    omega_a[ii, jj] = kappa ** p * np.asarray(omega_z(times[ii], times[jj]))
    Ti, Tj = np.meshgrid(times, times, indexing="ij")
    gap = np.triu(Tj - Ti, k=1)
    sup_w = float(np.abs(states[0].particles.weights).max())
    omega_nat = remainder.remainder_norms ** (p / 3.0)
    bound = (1.0 + sup_w) ** (2 * p) * (gap ** p + omega_a + omega_nat)

    omega_w = D ** p
    mask = loc.mask(times) & (bound > 0) \
        & np.triu(np.ones((n, n), dtype=bool), k=1)
    constant = float((omega_w[mask] / bound[mask]).max()) if mask.any() else 0.0
    return SolutionVariation(times=times, omega_w=omega_w, bound_values=bound,
                             constant=constant,
                             variation_power=float(var_power), p_exponent=p)


# ---------------------------------------------------------------------------
# run persistence
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


@dataclass
class RunArchive:
    """A run directory read back: metadata, snapshots, diagnostics."""

    meta: dict
    times: np.ndarray
    fields: list
    particles: list
    diagnostics: dict


def save_run(trajectory: EulerTrajectory, root, name: str = "run", *,
             binary: bool = False, config: dict | None = None,
             extra_diagnostics: dict | None = None) -> pathlib.Path:
    """Persist a trajectory as ``root/name/``: meta, snapshots, diagnostics.

    Layout: ``meta.json`` (grid/driver summary plus the caller's ``config``
    echoed verbatim), one ``fields_t####`` and ``particles_t####`` file per
    stored snapshot (CSV by default, binary twins with ``binary=True``), and
    ``diagnostics.json`` (conservation numbers merged with
    ``extra_diagnostics``).
    """
    out = pathlib.Path(root) / name
    out.mkdir(parents=True, exist_ok=True)
    state0 = trajectory[0]
    meta = {
        "name": name,
        "times": trajectory.times.tolist(),
        "resolution": state0.vorticity.N,
        "n_particles": int(state0.particles.positions.shape[0]),
        "p_exponent": trajectory.driver.rough_path.p_exponent,
        "driver_dim": trajectory.driver.dim,
        "sign_convention": trajectory.driver.sign_convention,
        "initial_sup": trajectory.initial_sup,
        "initial_mean": trajectory.initial_mean,
        "binary": bool(binary),
        "config": config or {},
    }
    with open(out / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, default=_jsonable)
    for k, state in enumerate(trajectory):
        if binary:
            save_field_binary(state.vorticity, str(out / f"fields_t{k:04d}.bin"))
            save_particles_binary(state.particles,
                                  str(out / f"particles_t{k:04d}.bin"))
        else:
            save_field_csv(state.vorticity, str(out / f"fields_t{k:04d}.csv"))
            save_particles_csv(state.particles,
                               str(out / f"particles_t{k:04d}.csv"))
    diagnostics = {
        "conservation_drift": trajectory.conservation_drift,
        "sup_excess": trajectory.sup_excess,
        "snapshots": len(trajectory),
    }
    diagnostics.update(extra_diagnostics or {})
    with open(out / "diagnostics.json", "w") as fh:
        json.dump(diagnostics, fh, indent=2, default=_jsonable)
    return out


def load_run(path) -> RunArchive:
    """Read back a :func:`save_run` directory (CSV or binary layout)."""
    root = pathlib.Path(path)
    try:
        with open(root / "meta.json") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise GridError(f"{root} is not a run directory (no meta.json)")
    with open(root / "diagnostics.json") as fh:
        diagnostics = json.load(fh)
    times = np.asarray(meta["times"], dtype=float)
    fields, particles = [], []
    for k in range(times.size):
        if meta.get("binary", False):
            fields.append(load_field_binary(str(root / f"fields_t{k:04d}.bin")))
            particles.append(load_particles_binary(
                str(root / f"particles_t{k:04d}.bin")))
        else:
            fields.append(load_field_csv(str(root / f"fields_t{k:04d}.csv")))
            particles.append(load_particles_csv(
                str(root / f"particles_t{k:04d}.csv")))
    return RunArchive(meta=meta, times=times, fields=fields,
                      particles=particles, diagnostics=diagnostics)
