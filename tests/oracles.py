"""Independent pricing oracles used to freeze expected values.

These deliberately avoid the package's own solvers: closed-form
Black-Scholes, a CRR binomial tree for the American put, and the classic
Poisson-mixture series for the Merton European put.  The reference path
simulator keeps the path-major layout the package's simulator replaced.
The scipy references of the numpy and stdlib code that replaced them:
Merton's normal CDF and quantile by `scipy.special`, the 2D jump convolution
by `scipy.fft` and the residual's masks by `scipy.ndimage`.
"""

import numpy as np
from scipy.stats import norm

from levypricer.model import Empirical, MertonNormal
from levypricer.pide import _compensate, _jump_convolution


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
    Convolves the level afresh, as a reference for the stored jump field."""
    grid = solution.grid
    if operator.lam == 0:
        return np.zeros(grid.shape)
    core = solution.values[k]
    floor = solution.payoff.evaluate(operator.ring_prices) if solution.kind == "american" else None
    conv = _jump_convolution(operator, solution.payoff, core, grid.T - grid.times[k], floor)
    return _compensate(operator, conv, core)


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
