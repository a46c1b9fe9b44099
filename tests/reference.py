"""Independent brute-force references used across the test-suite.

Everything here is written for obviousness, not speed: exhaustive enumeration
over partitions, dense pair tables, plain Monte-Carlo.  The library
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


def norms_from_values(values):
    """|g(t_j) − g(t_i)| as a dense (n+1, n+1) matrix, the table the streamed
    p-variation columns stand in for.

    The norm is one ``einsum`` over the flattened trailing axes, the
    contraction the streamed columns use, so the two agree bit for bit.
    """
    v = np.asarray(values, dtype=float)
    v = v.reshape(v.shape[0], -1)
    diff = v[None, :, :] - v[:, None, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


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


def curl(u):
    """∂₁u₂ − ∂₂u₁ of a grid velocity field ``u`` of shape (2, N, N), computed
    spectrally, as a :class:`~roughflow.fields.VorticityGrid`."""
    from roughflow.fields import VorticityGrid

    n = u.shape[-1]
    k = np.fft.fftfreq(n, d=1.0 / n)
    w_hat = (1j * k[:, None] * np.fft.fft2(u[1])
             - 1j * k[None, :] * np.fft.fft2(u[0]))
    return VorticityGrid(np.fft.ifft2(w_hat).real)


def mollify(field, eta):
    """Convolve with the compact bump of radius ``eta``, normalized on the grid.

    The kernel is ``exp(−1/(1 − |z/η|²))`` inside ``|z| < η`` (nearest-image),
    zero outside, divided by its discrete sum — so the convolution is a convex
    combination of samples: the grid mean is preserved and the sup norm never
    increases, both to rounding.  ``field`` is a
    :class:`~roughflow.fields.VorticityGrid` or a plain ``(N, N)`` array (the
    return type matches).

    Raises:
        HypothesisError: ``eta`` outside ``(0, 1]``.
        UndersamplingError: ``eta`` smaller than two grid cells (the bump
            would fall between nodes).
    """
    from roughflow.errors import HypothesisError, UndersamplingError
    from roughflow.fields import TWO_PI, VorticityGrid, _nearest_image, nodes_1d

    values = field.values if isinstance(field, VorticityGrid) else np.asarray(field, float)
    n = values.shape[0]
    h = TWO_PI / n
    if not (0.0 < eta <= 1.0):
        raise HypothesisError(f"mollification radius must be in (0, 1], got {eta}")
    if eta < 2.0 * h:
        raise UndersamplingError(
            f"eta = {eta:g} is below the grid resolution (need >= {2 * h:g} at N = {n})")
    z = _nearest_image(nodes_1d(n))
    R2 = (z[:, None] ** 2 + z[None, :] ** 2) / eta ** 2
    with np.errstate(divide="ignore", over="ignore"):
        kernel = np.where(R2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - R2, 1e-300)), 0.0)
    kernel /= kernel.sum()
    out = np.fft.ifft2(np.fft.fft2(values) * np.fft.fft2(kernel)).real
    return VorticityGrid(out) if isinstance(field, VorticityGrid) else out


def advected_by(field, other, points):
    """``(other·∇) field`` at ``points``: component a is Σ_b other^b ∂_b field^a,
    from the catalog fields' analytic gradients."""
    return np.einsum("...ab,...b->...a", field.gradient(points), other(points))


def geometric_symmetry_defect(rp):
    """Max relative defect of Sym 𝕫 = ½ Z⊗Z over the consecutive segments of
    the rough path ``rp``; zero (to rounding) for a geometric lift."""
    dZ = np.diff(rp.values, axis=0)
    sym = 0.5 * (rp.segment_area + np.swapaxes(rp.segment_area, 1, 2))
    target = 0.5 * np.einsum("ka,kb->kab", dZ, dZ)
    scale = max(float(np.abs(target).max()), 1e-300)
    return float(np.abs(sym - target).max()) / scale


def spectral_divergence(u):
    """Max |∇·u| of a grid velocity field ``u`` of shape (2, N, N), with
    spectral derivatives."""
    n = u.shape[-1]
    k = np.fft.fftfreq(n, d=1.0 / n)
    div_hat = (1j * k[:, None] * np.fft.fft2(u[0])
               + 1j * k[None, :] * np.fft.fft2(u[1]))
    return float(np.abs(np.fft.ifft2(div_hat).real).max())


def occupancy_chi_squared(positions, n_cells):
    """χ² of particle counts in an ``n_cells``² torus grid against the uniform
    multinomial, with its one-sided 3σ threshold ``dof + 3·√(2·dof)``.

    Returns ``(chi_squared, threshold)``.  A lattice carried by an
    area-preserving flow stays below the threshold; clustering exceeds it.
    """
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    cells = np.floor(pos * (n_cells / (2.0 * np.pi))).astype(int) % n_cells
    counts = np.bincount(cells[:, 0] * n_cells + cells[:, 1],
                         minlength=n_cells * n_cells)
    expected = pos.shape[0] / (n_cells * n_cells)
    dof = n_cells * n_cells - 1
    chi2 = float(((counts - expected) ** 2).sum() / expected)
    return chi2, dof + 3.0 * np.sqrt(2.0 * dof)


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
    return _all_windows_dp(z_norm ** p) + _all_windows_dp(zz_norm ** (p / 2.0))


def all_windows_dp_by_rows(norms_pow, mask):
    """Table ``V[i, j]`` of maximal (masked) partition sums over every window,
    one DP row per start node ``i`` (the nested loop the library used before
    its one DP over start rows and end nodes)."""
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


def euler_grids_by_redeposit(flows, resolution):
    """``(deposit, velocity)`` of each ensemble, deposited and solved afresh:
    the mean-free deposit's Biot-Savart field."""
    from roughflow.fields import VorticityGrid, biot_savart, deposit

    out = []
    for flow in flows:
        w = deposit(flow.positions, flow.weights, resolution)
        out.append((w, biot_savart(VorticityGrid(w.values - w.mean))))
    return out


def spectral_upsample_complex(values, r):
    """Zero-padded upsampling on the full complex spectrum (``fft2``/``ifft2``),
    the Nyquist row and column split evenly between wavenumbers ±N/2.

    The split needs ``r >= 2``: at ``r = 1`` both Nyquist lines are the same
    line, and halving it twice would quarter it, so ``r = 1`` returns the
    grid itself.
    """
    values = np.asarray(values, dtype=float)
    if r == 1:
        return values.copy()
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


def padded_upsample_by_irfft2(values, r):
    """The wrap-padded ``r×`` upsample of one ``(N, N)`` grid as the library
    computed it before its pruned inverse: the full ``(Nu, Nu/2 + 1)``
    half-spectrum, zero band included, through one ``irfft2``, then
    ``np.pad`` in wrap mode (one row and column before, three after)."""
    values = np.asarray(values, dtype=float)
    N = values.shape[0]
    Nu = N * r
    if r == 1:
        return np.pad(values, ((1, 3), (1, 3)), mode="wrap")
    half = N // 2
    ny = Nu - half
    W = np.fft.rfft2(values)
    Wf = np.zeros((Nu, Nu // 2 + 1), dtype=complex)
    Wf[:half, :half + 1] = W[:half]
    Wf[ny:, :half + 1] = W[half:]
    Wf[:, half] /= 2.0
    Wf[half, :] = Wf[ny, :] / 2.0
    Wf[ny, :] /= 2.0
    fine = np.fft.irfft2(Wf, s=(Nu, Nu)) * (r * r)
    return np.pad(fine, ((1, 3), (1, 3)), mode="wrap")


def cubic_by_modulo_gather(values, pts, r):
    """Periodic Catmull-Rom at ``pts`` of each grid in ``values`` through
    modulo-indexed gathers, shape ``(C, n_pts)``.

    The gather the library used before its padded-grid kernel: every tap's
    row and column are reduced modulo the fine side, and taps are summed
    a → b → component as ``out[k] += w_a w_b · f[ind]``.  The fine grids
    are the interiors of the library's own padded upsamples, so only the
    gather differs.
    """
    from roughflow.fields import TWO_PI, _padded_upsample

    fine = [_padded_upsample(c, r)[1:-3, 1:-3] for c in values]
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
        ])

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


def deposit_by_modulo(positions, weights, N):
    """Bilinear deposition as the library wrote it before its one-wrap kernel:
    ``np.mod`` positions, per-tap ``% N`` node indices and hat weights
    ``|1 − a − f|`` recomputed inside the loop, summed a → b into one
    ``np.add.at`` table.  Returns the raw ``(N, N)`` node values times
    ``N²/N_p``, the :class:`~roughflow.fields.VorticityGrid` values."""
    from roughflow.fields import TWO_PI

    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    w = np.broadcast_to(np.asarray(weights, dtype=float).ravel(), (pts.shape[0],))
    g = np.mod(pts, TWO_PI) * (N / TWO_PI)
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
    return acc.reshape(N, N) * (N * N / pts.shape[0])


def second_level_by_einsum(sigmas, positions, A):
    """The Davie step's second-level term ``Σ_{i,j,b} 𝕫^{ij} σ_i^b ∂_b σ_j^a``
    as one three-operand contraction over stacked values and gradients."""
    S = np.stack([f(positions) for f in sigmas])
    G = np.stack([f.gradient(positions) for f in sigmas])
    return np.einsum("i...b,j...ab,ij->...a", S, G, A)


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


def particle_pairings_by_points(family, sigmas, positions, weights, velocities):
    """One snapshot's ``(P, G, PS, PSS)`` from the family's pointwise methods:
    every member, gradient and transport evaluated at every particle, then
    summed against the weights with the particle quadrature ``(2π)²/n``."""
    w = np.asarray(weights, dtype=float).ravel()
    quad = (2.0 * np.pi) ** 2 / w.size
    P = family.pair_particles(positions, w)
    G = family.flux_pair_particles(positions, w, velocities)
    PS = quad * np.einsum("jfn,n->jf", family.transport_at(sigmas, positions), w)
    PSS = quad * np.einsum("ijfn,n->ijf",
                           family.second_transport_at(sigmas, positions), w)
    return P, G, PS, PSS
