"""Independent pricing oracles used to freeze expected values.

These deliberately avoid the package's own solvers: closed-form
Black-Scholes, a CRR binomial tree for the American put, the classic
Poisson-mixture series for the Merton European put and its Poisson-binomial
counterpart for a two-atom jump law.  The reference path
simulator keeps the path-major layout the package's simulator replaced.
The scipy references of the numpy and stdlib code that replaced them:
Merton's normal CDF and quantile by `scipy.special`, the 2D jump convolution
by `scipy.fft` and the residual's masks by `scipy.ndimage`.
"""

import math

import numpy as np
from scipy.stats import norm

from levypricer.model import Empirical, MertonNormal
from levypricer.pide import _compensate, far_field_values


def bs_put(S, K, T, r, sigma, q=0.0):
    d1 = (np.log(S / K) + (r - q + 0.5 * sigma ** 2) * T) / (sigma * np.sqrt(T))
    d2 = d1 - sigma * np.sqrt(T)
    return K * np.exp(-r * T) * norm.cdf(-d2) - S * np.exp(-q * T) * norm.cdf(-d1)


def bivariate_normal_cdf(h, k, rho):
    """P(X <= h, Y <= k) for standard normals of correlation |rho| < 1, by
    Owen's T function (Owen 1956); h and k nonzero."""
    from scipy.special import owens_t
    assert h != 0 and k != 0 and abs(rho) < 1
    root = np.sqrt(1.0 - rho * rho)
    tail = 0.0 if h * k > 0 else 0.5
    return float(0.5 * (norm.cdf(h) + norm.cdf(k)) - owens_t(h, (k - rho * h) / (h * root))
                 - owens_t(k, (h - rho * k) / (k * root)) - tail)


def stulz_two_asset(S, K, T, r, q, a):
    """European (max-call, min-put) on two lognormal assets: spot S, strike K,
    dividend yields q and log-return covariance a (Stulz 1982, Johnson 1987).

    The max-call is Johnson's formula.  The min-put follows from
    min(S1, S2) = S1 - (S1 - S2)^+ (Margrabe's exchange value), the call on
    the min = two Black-Scholes calls less the max-call, and put-call parity.
    """
    s1, s2 = np.sqrt(a[0][0]), np.sqrt(a[1][1])
    rho = a[0][1] / (s1 * s2)
    sig = np.sqrt(a[0][0] + a[1][1] - 2.0 * a[0][1])
    f1, f2, disc = S[0] * np.exp(-q[0] * T), S[1] * np.exp(-q[1] * T), K * np.exp(-r * T)
    d = (np.log(S[0] / S[1]) + (q[1] - q[0] + 0.5 * sig ** 2) * T) / (sig * np.sqrt(T))
    y1 = (np.log(S[0] / K) + (r - q[0] + 0.5 * s1 ** 2) * T) / (s1 * np.sqrt(T))
    y2 = (np.log(S[1] / K) + (r - q[1] + 0.5 * s2 ** 2) * T) / (s2 * np.sqrt(T))
    max_call = f1 * bivariate_normal_cdf(y1, d, (s1 - rho * s2) / sig) \
        + f2 * bivariate_normal_cdf(y2, -d + sig * np.sqrt(T), (s2 - rho * s1) / sig) \
        - disc * (1.0 - bivariate_normal_cdf(-y1 + s1 * np.sqrt(T), -y2 + s2 * np.sqrt(T), rho))
    exchange = f1 * norm.cdf(d) - f2 * norm.cdf(d - sig * np.sqrt(T))
    calls = [bs_put(S[i], K, T, r, sd, q[i]) + S[i] * np.exp(-q[i] * T) - disc
             for i, sd in enumerate((s1, s2))]
    min_call = sum(calls) - max_call
    return float(max_call), float(min_call - (f1 - exchange) + disc)


def crr_american_put(S, K, T, r, sigma, steps, q=0.0):
    dt = T / steps
    u = np.exp(sigma * np.sqrt(dt))
    d = 1.0 / u
    p = (np.exp((r - q) * dt) - d) / (u - d)
    disc = np.exp(-r * dt)
    j = np.arange(steps + 1)
    vals = np.maximum(K - S * u ** (2 * j - steps), 0.0)
    for n in range(steps - 1, -1, -1):
        j = np.arange(n + 1)
        prices = S * u ** (2 * j - n)
        vals = disc * (p * vals[1:n + 2] + (1 - p) * vals[0:n + 1])
        vals = np.maximum(vals, K - prices)
    return float(vals[0])


def merton_put_series(S, K, T, r, lam, jump_mean, jump_std, sigma, n_terms=60):
    k = np.exp(jump_mean + 0.5 * jump_std ** 2) - 1.0
    lam2 = lam * (1.0 + k)
    total, fact = 0.0, 1.0
    for n in range(n_terms):
        if n:
            fact *= n
        prob = np.exp(-lam2 * T) * (lam2 * T) ** n / fact
        r_n = r - lam * k + n * (jump_mean + 0.5 * jump_std ** 2) / T
        sigma_n = np.sqrt(sigma ** 2 + n * jump_std ** 2 / T)
        total += prob * bs_put(S, K, T, r_n, sigma_n)
    return float(total)


def two_atom_put_series(S, K, T, r, q, sigma, lam, up, down, p_up, n_terms=40):
    """European put under Black-Scholes plus Poisson(lam) jumps of log size
    `up` (probability `p_up`) or `down`: Black-Scholes puts mixed over the
    jump count n and the up-jump count k, each at spot
    S exp(-lam kappa T + k up + (n - k) down)."""
    kappa = p_up * np.exp(up) + (1.0 - p_up) * np.exp(down) - 1.0
    total = 0.0
    for n in range(n_terms):
        prob_n = np.exp(-lam * T) * (lam * T) ** n / math.factorial(n)
        for k in range(n + 1):
            spot = S * np.exp(-lam * kappa * T + up * k + down * (n - k))
            total += prob_n * math.comb(n, k) * p_up ** k * (1.0 - p_up) ** (n - k) \
                * bs_put(spot, K, T, r, sigma, q)
    return float(total)


def ndtr_component_cdf(law, y, i):
    """`MertonNormal.component_cdf` by `scipy.special.ndtr`."""
    from scipy.special import ndtr
    return ndtr((y - law.mean[i]) / np.sqrt(max(law.cov[i, i], 1e-300)))


def ndtri_component_radius(law, i, tail):
    """`MertonNormal.component_radius` by `scipy.special.ndtri`."""
    from scipy.special import ndtri
    return abs(law.mean[i]) - ndtri(tail / 2.0) * np.sqrt(max(law.cov[i, i], 0.0))


def sparse_operator_1d(model, grid, n_pen, active):
    """(local, step, penalized) matrices of a 1D grid by the scipy.sparse
    assembly that the tridiagonal one replaced, kept as its reference:
    `(1/2) a D2 + b D1 - lambda I` on interior rows, D1 upwind past cell
    Peclet number 1; `I/dt - local` on interior rows and identity on
    boundary rows; the step plus `n_pen diag(active)`."""
    import scipy.sparse as sp
    n, dz, dt = grid.n_space, grid.dz[0], grid.dt
    a, b = model.gaussian.a[0, 0], model.log_drift[0]
    d2 = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / (dz * dz)
    d1 = sp.diags([-0.5, 0.5], [-1, 1], shape=(n, n)) / dz
    if abs(b) * dz / max(a, 1e-300) > 1.0:
        d1 = sp.diags([-1.0, 1.0], [0, 1] if b > 0 else [-1, 0], shape=(n, n)) / dz
    local = 0.5 * a * d2 + b * d1 - model.jumps.intensity * sp.identity(n)
    interior = grid.interior.ravel().astype(float)
    local = sp.diags(interior) @ local.tocsr()
    step = (sp.diags(interior) @ (sp.identity(n) / dt - local) + sp.diags(1.0 - interior)).tocsc()
    return local.tocsr(), step, (step + sp.diags(n_pen * active.astype(float))).tocsc()


def sparse_operator_2d(model, grid, n_pen, active):
    """(local, step, penalized) matrices of a 2D grid by the scipy.sparse
    Kronecker assembly that the banded one replaced, kept as its reference:
    `(1/2) a11 D2 (x) I + (1/2) a22 I (x) D2 + a12 Dc (x) Dc + b1 D1 (x) I
    + b2 I (x) D1 - lambda I` on interior rows, by a diagonal mask, with each
    axis's bands from `pide._axis_bands`; the interior rows of `I/dt - local`
    plus the identity's boundary rows; the step plus `n_pen diag(active)`."""
    import scipy.sparse as sp
    from levypricer.pide import _axis_bands
    a, b, n = model.gaussian.a, model.log_drift, grid.n_space
    d2, d1, dc = ([sp.diags(bands, (-1, 0, 1), shape=(n, n)) for bands in diff] for diff in
                  zip(*(_axis_bands(grid.dz[i], b[i], a[i, i]) for i in range(2))))
    eye = sp.identity(n)
    local = 0.5 * a[0, 0] * sp.kron(d2[0], eye) + 0.5 * a[1, 1] * sp.kron(eye, d2[1]) \
        + a[0, 1] * sp.kron(dc[0], dc[1]) \
        + b[0] * sp.kron(d1[0], eye) + b[1] * sp.kron(eye, d1[1])
    local = local - model.jumps.intensity * sp.identity(n * n)
    interior = grid.interior.ravel()
    local = (sp.diags(interior.astype(float)) @ local.tocsr()).tocsr()
    step = sp.diags(interior.astype(float)) @ (sp.identity(n * n) / grid.dt - local)
    step = (step + sp.diags((~interior).astype(float))).tocsc()
    return local, step, (step + sp.diags(n_pen * active.astype(float))).tocsc()


def direct_step(operator, payoff, upper, k):
    """The European values of level k from those of level k + 1, `upper`,
    built afresh as a reference for the solver's shared step: the jump
    convolution through `extend` with ring values from one scalar
    `far_field_values` call, boundary rows from another, the solve by
    `spsolve` on the step matrix of `sparse_operator_1d` or
    `sparse_operator_2d`, then the discount e^{-r dt}."""
    from scipy.sparse.linalg import spsolve
    grid, model = operator.grid, operator.model
    disc = np.exp(-model.rates.r * grid.dt)
    rhs = upper.ravel() / grid.dt
    if operator.lam > 0:
        ring = far_field_values(payoff, model, operator.ring_prices, grid.T - grid.times[k + 1])
        rhs = rhs + operator.convolve(operator.extend(upper, ring)).ravel()
    rhs[operator.boundary_mask] = far_field_values(
        payoff, model, operator.boundary_prices, grid.T - grid.times[k]) / disc
    sparse_operator = sparse_operator_1d if grid.dim == 1 else sparse_operator_2d
    step = sparse_operator(model, grid, 0.0, np.zeros(grid.interior.size, dtype=bool))[1]
    return disc * spsolve(step, rhs).reshape(grid.shape)


def reference_sample_sums(law, rng, counts):
    """Jump sums of every row, zero where `counts` is 0, by the full-size
    samplers of the three laws that the row-selecting ones replaced; same
    draws in the same order."""
    n, dim = counts.shape[0], law.dim
    if isinstance(law, MertonNormal):  # N jumps sum to N(N mean, N cov)
        g = rng.standard_normal((n, dim))
        return counts[:, None] * law.mean + np.sqrt(counts)[:, None] * (g @ law.chol.T)
    total = int(counts.sum())
    out = np.zeros((n, dim))
    if total == 0:
        return out
    owner = np.repeat(np.arange(n), counts)
    if isinstance(law, Empirical):
        idx = rng.choice(law.jumps.shape[0], size=total, p=law.probs)
        np.add.at(out, owner, law.jumps[idx])
        return out
    for i in range(dim):  # Kou: independent double-exponential components
        sign_up = rng.random(total) < law.p_up[i]
        mag_up = rng.exponential(1.0 / law.eta_plus[i], size=total)
        mag_dn = rng.exponential(1.0 / law.eta_minus[i], size=total)
        np.add.at(out[:, i], owner, np.where(sign_up, mag_up, -mag_dn))
    return out


def reference_simulate_block(model, log_x, dt, n_steps, rng, n_block):
    """Path-major log paths `(n_block, n_steps + 1, d)` of one block, written
    one strided step at a time, as the time-major simulator replaced."""
    d = model.dim
    sigma = model.gaussian.factor()
    b = model.log_drift
    lam = model.jumps.intensity
    sq = np.sqrt(dt)
    logs = np.empty((n_block, n_steps + 1, d))
    logs[:, 0, :] = log_x
    for k in range(n_steps):
        z = rng.standard_normal((n_block, d))
        incr = b * dt + sq * (z @ sigma.T)
        if lam > 0:
            counts = rng.poisson(lam * dt, size=n_block)
            incr += reference_sample_sums(model.jumps.law, rng, counts)
        logs[:, k + 1, :] = logs[:, k, :] + incr
    return logs


def apply_jump_operator(solution, operator, k):
    """L_I u at time level k: the compensated jump integral of the stored
    field, (K * u)(z) - lambda u(z) - sum_i lambda kappa_i d_i u(z) in log
    coordinates, with values beyond the grid from the far-field extension.
    Convolves the level afresh, its ring values from one scalar
    `far_field_values` call, as a reference for the stored jump field and the
    solver's per-solve far-field tables."""
    grid = solution.grid
    if operator.lam == 0:
        return np.zeros(grid.shape)
    core, payoff = solution.values[k], solution.payoff
    floor = payoff.evaluate(operator.ring_prices) if solution.kind == "american" else None
    ring = far_field_values(payoff, operator.model, operator.ring_prices,
                            grid.T - grid.times[k], floor)
    return _compensate(operator, operator.convolve(operator.extend(core, ring)), core)


def scipy_fft_convolve_valid(a, kernel):
    """'valid' 2D convolution by `scipy.fft` real transforms, padded to
    scipy's real `next_fast_len` of the full size."""
    from scipy.fft import irfftn, next_fast_len, rfftn
    fshape = [next_fast_len(sa + sk - 1, True) for sa, sk in zip(a.shape, kernel.shape)]
    out = irfftn(rfftn(a, fshape) * rfftn(kernel, fshape), fshape)
    return out[tuple(slice(sk - 1, sa) for sa, sk in zip(a.shape, kernel.shape))]


def ndimage_exercise_band(exercise, layers):
    """The exercise set's edge (the set minus its erosion) dilated `layers`
    times, by `scipy.ndimage` with its default cross structure."""
    from scipy.ndimage import binary_dilation, binary_erosion
    return binary_dilation(exercise ^ binary_erosion(exercise), iterations=layers)


def beg_two_asset(payoff, S, T, r, q, a, steps, american=True):
    """Value at (S1, S2) of `payoff(s1, s2)` on two lognormal assets of
    dividend yields q and log-return covariance a, by the Boyle-Evnine-Gibbs
    lattice (Boyle, Evnine & Gibbs 1989) of `steps` steps: each asset moves
    by e^{+-sigma_i sqrt(dt)}, the four joint moves matching the means,
    variances and correlation of the log returns to first order in dt.
    American values take the payoff where it is larger at every node."""
    dt = T / steps
    sig = np.sqrt([a[0][0], a[1][1]])
    rho = a[0][1] / (sig[0] * sig[1])
    drift = np.sqrt(dt) * (r - np.asarray(q) - 0.5 * sig ** 2) / sig
    p = {(i, j): 0.25 * (1.0 + i * j * rho + i * drift[0] + j * drift[1])
         for i in (1, -1) for j in (1, -1)}
    disc = np.exp(-r * dt)

    def prices(n):
        ups = 2 * np.arange(n + 1) - n
        return np.meshgrid(S[0] * np.exp(sig[0] * np.sqrt(dt) * ups),
                           S[1] * np.exp(sig[1] * np.sqrt(dt) * ups), indexing="ij")

    vals = payoff(*prices(steps))
    for n in range(steps - 1, -1, -1):
        vals = disc * (p[1, 1] * vals[1:, 1:] + p[1, -1] * vals[1:, :-1]
                       + p[-1, 1] * vals[:-1, 1:] + p[-1, -1] * vals[:-1, :-1])
        if american:
            vals = np.maximum(vals, payoff(*prices(n)))
    return float(vals[0, 0])
