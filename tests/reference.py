"""Independent brute-force references used across the test-suite.

Everything here is written for obviousness, not speed: exhaustive enumeration
over partitions, dense Riemann–Stieltjes sums, plain Monte-Carlo.  The library
is tested against these, never the other way round.
"""

import itertools

import numpy as np


def increment_norms(values=None, increments=None):
    """|g_{t_i,t_j}| as a dense (n+1, n+1) matrix, Euclidean over trailing axes."""
    if values is not None:
        v = np.asarray(values, dtype=float)
        v = v.reshape(v.shape[0], -1)
        diff = v[None, :, :] - v[:, None, :]
        return np.sqrt((diff ** 2).sum(axis=-1))
    g = np.asarray(increments, dtype=float)
    g = g.reshape(g.shape[0], g.shape[1], -1)
    return np.sqrt((g ** 2).sum(axis=-1))


def pvar_by_enumeration(norms, p, mask=None):
    """Maximal partition sum by exhaustive enumeration of interior node subsets.

    Returns (value, partition) where partition is a list of node indices;
    (-inf, None) when the mask admits no partition at all.  Intended for
    small paths (about 12 nodes or fewer).

    Cell values |g|^p are raised as one array operation so they are bitwise
    identical to any implementation doing the same; the enumeration replaces
    only the partition search.  (numpy's vectorized power and scalar power
    differ in the last ulp, which would make "exact agreement" meaningless.)
    """
    m = norms.shape[0]
    if m == 1:
        return 0.0, [0]
    powered = np.asarray(norms, dtype=float) ** p
    best, best_nodes = -np.inf, None
    for bits in itertools.product((0, 1), repeat=m - 2):
        nodes = [0] + [i + 1 for i, b in enumerate(bits) if b] + [m - 1]
        if mask is not None and not all(mask[a, b] for a, b in zip(nodes, nodes[1:])):
            continue
        total = 0.0
        for a, b in zip(nodes, nodes[1:]):
            total = total + powered[a, b]
        if total > best:
            best, best_nodes = total, nodes
    return best, best_nodes


def riemann_stieltjes(f_vals, g_vals):
    """Left-point Riemann–Stieltjes sum  Σ f(t_k) (g(t_{k+1}) − g(t_k))."""
    f = np.asarray(f_vals, dtype=float)
    g = np.asarray(g_vals, dtype=float)
    return float(np.sum(f[:-1] * np.diff(g)))


def fd_gradient(field, points, h=1e-6):
    """Central-difference Jacobian of a vector field, grad[..., a, b] = ∂_b σ^a."""
    pts = np.asarray(points, dtype=float)
    cols = []
    for b in range(2):
        bump = np.zeros(2)
        bump[b] = h
        cols.append((field(pts + bump) - field(pts - bump)) / (2 * h))
    return np.stack(cols, axis=-1)


def grid_l1(values):
    """∫|f| dx on an N×N torus grid (node quadrature)."""
    vals = np.asarray(values, dtype=float)
    n = vals.shape[0]
    h = 2.0 * np.pi / n
    return float(np.abs(vals).sum() * h * h)


def grid_w11(values):
    """‖f‖_{L¹} + ‖∂₁f‖_{L¹} + ‖∂₂f‖_{L¹} with spectral derivatives."""
    vals = np.asarray(values, dtype=float)
    n = vals.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    F = np.fft.fft2(vals)
    d1 = np.fft.ifft2(1j * k[:, None] * F).real
    d2 = np.fft.ifft2(1j * k[None, :] * F).real
    return grid_l1(vals) + grid_l1(d1) + grid_l1(d2)


def chen_defect_direct(z_vals, areas, i, j, k):
    """Chen defect of consecutive-segment areas composed naively.

    z_vals: (n+1, M) samples, areas: (n, M, M) consecutive second levels.
    Composes [i, j] and [j, k] windows by direct summation and returns the
    defect matrix  𝕫_{ik} − 𝕫_{ij} − 𝕫_{jk} − Z_{ij}⊗Z_{jk}.
    """

    # build windows by the Chen composition left to right (the defining rule)
    def compose(a, b):
        acc = np.zeros_like(areas[0])
        for m in range(a, b):
            acc = acc + areas[m] + np.outer(z_vals[m] - z_vals[a], z_vals[m + 1] - z_vals[m])
        return acc

    lhs = compose(i, k)
    rhs = compose(i, j) + compose(j, k) + np.outer(z_vals[j] - z_vals[i], z_vals[k] - z_vals[j])
    return lhs - rhs


def variation_control_table_meshgrid(rp, times, p):
    """Rough-path variation-control table by the dense meshgrid formula.

    Queries every ``(i, j)`` window of the node grid ``times`` (lower
    triangle included) through ``rp``'s own window queries, then runs the
    library's all-windows DP; kept as the brute reference the pair-table
    assembly must match bit for bit.
    """
    from roughflow.variation import _all_windows_dp, locate_nodes

    idx = locate_nodes(rp.times, times)
    I, J = np.meshgrid(idx, idx, indexing="ij")
    z = rp.pair_first_level(I, J)
    z_norm = np.sqrt(np.einsum("ija,ija->ij", z, z))
    zz = rp.pair_second_level(I, J)
    zz_norm = np.sqrt(np.einsum("ijab,ijab->ij", zz, zz))
    return _all_windows_dp(z_norm ** p, None) + _all_windows_dp(zz_norm ** (p / 2.0), None)


def rk4_flow(velocity, positions, t0, t1, n_steps):
    """Classical RK4 particle integrator for ẋ = u(t, x) (no wrapping).

    ``velocity(t, positions)`` must accept an (n, 2) array.  Used as the
    high-accuracy ODE oracle for drift-only flows.
    """
    x = np.array(positions, dtype=float)
    h = (t1 - t0) / n_steps
    for k in range(n_steps):
        t = t0 + k * h
        k1 = np.asarray(velocity(t, x))
        k2 = np.asarray(velocity(t + h / 2.0, x + h / 2.0 * k1))
        k3 = np.asarray(velocity(t + h / 2.0, x + h / 2.0 * k2))
        k4 = np.asarray(velocity(t + h, x + h * k3))
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def translated_mode_pairing_defect(c, z_s, z_t):
    """Closed-form weak-remainder value for the translated cosine column.

    For w₀ = cos x₁ advected by constant σ = (c, 0) the solution is
    w_t = cos(x₁ + c Z_t), its pairing with ψ = cos x₁ equals 2π² cos(c Z_t),
    the drift pairing vanishes, and the two driver terms are the first- and
    second-order Taylor pieces of cos at c Z_s.  The remainder is therefore
    2π² times the third-order Taylor defect (𝕫 = δZ²/2 for the geometric
    lift of a scalar path).
    """
    dz = z_t - z_s
    a = c * z_s
    return 2.0 * np.pi ** 2 * (
        np.cos(a + c * dz) - np.cos(a)
        + c * dz * np.sin(a)
        + 0.5 * (c * dz) ** 2 * np.cos(a)
    )


def heat_mode_decay(k1, k2, amplitude, nu, t):
    """Exact spectral decay factor of a single torus mode under ν-diffusion."""
    return amplitude * np.exp(-nu * (k1 * k1 + k2 * k2) * t)


def trapezoid_pair_integral(times, values):
    """Composite-trapezoid antiderivative table c_k = ∫_{t_0}^{t_k} f dr."""
    t = np.asarray(times, dtype=float)
    f = np.asarray(values, dtype=float)
    inc = 0.5 * (f[1:] + f[:-1]) * np.diff(t)[(...,) + (None,) * (f.ndim - 1)]
    out = np.zeros_like(f)
    out[1:] = np.cumsum(inc, axis=0)
    return out
