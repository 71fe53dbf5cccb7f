"""Independent numerical oracles used by the test suite.

Everything here is deliberately built from different machinery than the
package: brute-force Gram-Schmidt on monomials, composite midpoint/panel
quadrature assembled by hand, and direct summation.  Tests compare package
output against these.
"""

import numpy as np


def exp_weight_nodes(x_max: float = 120.0, panels: int = 600, order: int = 10):
    """Composite Gauss-Legendre rule against exp(-x) on (0, x_max)."""
    xs, ws = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, x_max, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
    weights = (half[:, None] * ws[None, :]).ravel() * np.exp(-nodes)
    return nodes, weights


def uniform01_nodes(panels: int = 200, order: int = 10):
    xs, ws = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * xs[None, :]).ravel(),
            (half[:, None] * ws[None, :]).ravel())


def geometric_nodes(p: float, n_points: int = 2000):
    """Geometric masses summed far into the tail (mass beyond is ~p**n)."""
    x = np.arange(n_points, dtype=float)
    return x, (1.0 - p) * p ** x


def _stirling2(r_max: int) -> np.ndarray:
    """Stirling numbers of the second kind S(r, i), r, i = 0..r_max."""
    s = np.zeros((r_max + 1, r_max + 1))
    s[0, 0] = 1.0
    for r in range(1, r_max + 1):
        for i in range(1, r + 1):
            s[r, i] = i * s[r - 1, i] + s[r - 1, i - 1]
    return s


def _tilted_moments(law, c: float, r_max: int) -> np.ndarray:
    """E[Y**r * exp(-c * Y)] for r = 0..r_max, in closed form.

    ``law`` is plain data: ("gamma", a, theta) gives
    Gamma(a + r) / Gamma(a) * theta**r * (1 + c * theta)**-(a + r);
    ("unif",) gives the lower incomplete gamma r! P(r + 1, c) / c**(r + 1)
    (1 / (r + 1) at c = 0); ("point", v) gives v**r * exp(-c * v).  The
    tilt of ("poisson", mean) is Poisson(mu = mean e**-c) times
    exp(mu - mean), whose moments are the Touchard polynomials
    sum_i S(r, i) mu**i; that of ("geometric", mean), with
    q = mean / (1 + mean), is the geometric law of ratio g = q e**-c times
    (1 - q) / (1 - g), whose factorial moments are i! (g / (1 - g))**i.
    ("mix", w, A, B) is the weighted sum of its two components.
    """
    from math import exp, factorial

    from scipy.special import gammainc

    r = np.arange(r_max + 1)
    if law[0] == "gamma":
        _, a, theta = law
        rising = np.concatenate(([1.0], np.cumprod(a + r[:-1])))
        return rising * theta ** r * (1.0 + c * theta) ** -(a + r)
    if law[0] == "unif":
        if c == 0:
            return 1.0 / (r + 1.0)
        fact = np.array([float(factorial(j)) for j in r])
        return fact * gammainc(r + 1.0, c) / c ** (r + 1.0)
    if law[0] == "point":
        return float(law[1]) ** r * np.exp(-c * law[1])
    if law[0] == "poisson":
        mu = law[1] * exp(-c)
        return exp(mu - law[1]) * (_stirling2(r_max) @ mu ** r)
    if law[0] == "geometric":
        q = law[1] / (1.0 + law[1])
        g = q * exp(-c)
        fact = np.array([float(factorial(i)) for i in r])
        return ((1.0 - q) / (1.0 - g)
                * (_stirling2(r_max) @ (fact * (g / (1.0 - g)) ** r)))
    _, w, first, second = law
    return (w * _tilted_moments(first, c, r_max)
            + (1.0 - w) * _tilted_moments(second, c, r_max))


def gamma_tilted_coefficients(y, z, k: int):
    """alpha_1..alpha_k and Sigma of Y + Z on the exponential reference.

    No quadrature: the tilted moments E[X**m exp(-c X)] of X = Y + Z
    (c = 1 for alpha, c = 2 for the second moments, since m(x) = exp(-x))
    come from the closed forms of ``_tilted_moments`` and a binomial
    convolution, and are combined with the monomial coefficients of the
    Laguerre polynomials L_n(x) = sum_j C(n, j) (-x)**j / j!, which are
    orthonormal under exp(-x).  The monomial route cancels as k grows, so
    it is kept to k <= 6.
    """
    from math import comb, factorial

    if not 1 <= k <= 6:
        raise ValueError("the moment oracle covers 1 <= k <= 6")

    def moments_of_sum(c):
        my, mz = _tilted_moments(y, c, 2 * k), _tilted_moments(z, c, 2 * k)
        return np.array([sum(comb(m, r) * my[r] * mz[m - r]
                             for r in range(m + 1)) for m in range(2 * k + 1)])

    coef = np.array([[comb(n, j) * (-1.0) ** j / factorial(j) if j <= n else 0.0
                      for j in range(k + 1)] for n in range(k + 1)])
    alphas = coef @ moments_of_sum(1.0)[: k + 1]
    mu2 = moments_of_sum(2.0)
    m2 = coef @ mu2[np.add.outer(np.arange(k + 1), np.arange(k + 1))] @ coef.T
    sigma = m2 - np.outer(alphas, alphas)
    return alphas[1:], sigma[1:, 1:]


def gram_schmidt_polynomials(max_degree: int, nodes: np.ndarray,
                             weights: np.ndarray) -> np.ndarray:
    """Orthonormal polynomial values at the nodes via monomial Gram-Schmidt.

    Row d holds the values of the degree-d orthonormal polynomial under the
    discrete inner product <f, g> = sum(weights * f * g).  Signs follow the
    convention of a positive leading coefficient.
    """
    mono = nodes[None, :] ** np.arange(max_degree + 1)[:, None]
    basis = []
    for d in range(max_degree + 1):
        v = mono[d].astype(float).copy()
        for _ in range(2):  # re-orthogonalize for numerical hygiene
            for b in basis:
                v -= np.dot(weights * b, v) * b
        norm = np.sqrt(np.dot(weights, v * v))
        basis.append(v / norm)
    return np.asarray(basis)


def exact_t_sequence(bhat, sigma) -> np.ndarray:
    """T_1..T_d of ``bhat`` against ``sigma`` in exact rational arithmetic.

    The floats are read exactly as ``Fraction``s.  One symmetric Gaussian
    elimination without pivoting (LDL') gives the pivots D_j of every
    leading block, and the same row operations on ``bhat`` give
    y = L^-1 bhat, so each prefix's quadratic form bhat_k' Sigma_k^-1 bhat_k
    is T_k = y_1**2 / D_1 + ... + y_k**2 / D_k.  Each T_k is rounded once.
    """
    from fractions import Fraction

    a = [[Fraction(float(v)) for v in row] for row in sigma]
    y = [Fraction(float(v)) for v in bhat]
    total, out = Fraction(0), []
    for j in range(len(y)):
        pivot = a[j][j]
        total += y[j] * y[j] / pivot
        out.append(float(total))
        for i in range(j + 1, len(y)):
            f = a[i][j] / pivot
            y[i] -= f * y[j]
            for c in range(j + 1, len(y)):
                a[i][c] -= f * a[j][c]
    return np.array(out)


def chi2_cdf_by_quadrature(x: float, df: int, n_steps: int = 20000) -> float:
    """Chi-squared CDF by direct integration of the density.

    For df = 1 the substitution x = t**2 removes the origin singularity;
    otherwise a plain composite midpoint rule is accurate enough.
    """
    from math import exp, gamma, pi, sqrt

    if x <= 0:
        return 0.0
    if df == 1:
        t = np.linspace(0.0, sqrt(x), n_steps + 1)
        mid = 0.5 * (t[1:] + t[:-1])
        vals = 2.0 * np.exp(-mid ** 2 / 2.0) / sqrt(2.0 * pi)
        return float(np.sum(vals) * (t[1] - t[0]))
    g = np.linspace(0.0, x, n_steps + 1)
    mid = 0.5 * (g[1:] + g[:-1])
    dens = (mid ** (df / 2.0 - 1.0) * np.exp(-mid / 2.0)
            / (2.0 ** (df / 2.0) * gamma(df / 2.0)))
    return float(np.sum(dens) * (g[1] - g[0]))


def poisson_masses(mean: float, x: np.ndarray) -> np.ndarray:
    """Poisson masses at the integer nodes 0, 1, ... by the ratio recurrence."""
    ratios = np.concatenate(([np.exp(-mean)], mean / x[1:]))
    return np.cumprod(ratios)


def geometric_masses(mean: float, x: np.ndarray) -> np.ndarray:
    """Geometric masses on {0, 1, ...} with the given mean."""
    q = mean / (1.0 + mean)
    return (1.0 - q) * q ** x


def meixner_orthonormal(max_degree: int, p: float, x) -> np.ndarray:
    """Orthonormal Meixner polynomials Q_0..Q_max_degree at x, one row each.

    Under the geometric masses (1 - p) p**x the Meixner polynomials
    M_n(x; 1, p), scaled to M_n(0) = 1, satisfy the three-term recurrence
    (p - 1) x M_n = p (n + 1) M_{n+1} - (n + (n + 1) p) M_n + n M_{n-1} and
    have squared norms p**-n (Koekoek & Swarttouw, section 1.9), so
    Q_n = p**(n / 2) M_n.
    """
    x = np.asarray(x, dtype=float)
    m = [np.ones_like(x), 1.0 - x * (1.0 - p) / p]
    for n in range(1, max_degree):
        m.append(((p - 1.0) * x * m[n] + (n + (n + 1) * p) * m[n]
                  - n * m[n - 1]) / (p * (n + 1)))
    return np.array([p ** (n / 2.0) * m[n] for n in range(max_degree + 1)])


def _count_masses(law, x: np.ndarray) -> np.ndarray:
    """Masses of a count law (plain data as in ``_tilted_moments``) at x."""
    if law[0] == "poisson":
        return poisson_masses(law[1], x)
    if law[0] == "geometric":
        return geometric_masses(law[1], x)
    if law[0] == "point":
        return (x == law[1]).astype(float)
    _, w, first, second = law
    return w * _count_masses(first, x) + (1.0 - w) * _count_masses(second, x)


def count_null_coefficients(y, z, p: float, k: int, n_points: int = 600):
    """alpha_1..alpha_k and Sigma of Y + Z on the geometric(p) reference.

    No Gauss rule: the masses of X = Y + Z are the direct convolution of
    the component masses on 0..n_points-1 (every law in the tests leaves
    less than 1e-70 beyond), and the moments of Q_j(X) m(X) with the
    orthonormal Meixner polynomials and m(x) = (1 - p) p**x are plain sums
    over those points.
    """
    x = np.arange(n_points, dtype=float)
    mass = np.convolve(_count_masses(y, x), _count_masses(z, x))[:n_points]
    v = meixner_orthonormal(k, p, x)[1:] * ((1.0 - p) * p ** x)
    alphas = v @ mass
    sigma = (v * mass) @ v.T - np.outer(alphas, alphas)
    return alphas, sigma


def count_bhat(rows: np.ndarray, p: float, alphas: np.ndarray) -> np.ndarray:
    """sqrt(n) (mean_i Q_j(x_i) m(x_i) - alpha_j) for rows of counts.

    The reference mass is m(x) = (1 - p) p**x; where it underflows to 0
    the term is 0.  Each row's mean is an exactly rounded sum (``fsum``)
    of its n terms, point by point, divided by n.  Shape (k, reps).
    """
    from math import fsum, sqrt

    k = len(alphas)
    out = np.empty((k, len(rows)))
    for r, row in enumerate(np.asarray(rows, dtype=float)):
        m = (1.0 - p) * p ** row
        live = m > 0
        terms = np.zeros((k, row.size))
        terms[:, live] = meixner_orthonormal(k, p, row[live])[1:] * m[live]
        out[:, r] = [sqrt(row.size) * (fsum(t) / row.size - a)
                     for t, a in zip(terms, alphas)]
    return out


def _first_order_power(n: int, critical: float, alpha_null: float,
                       alpha_alt: float, sigma_11: float, tau2: float) -> dict:
    """P(T_1 > critical) under an alternative, from the moments of Q_1 m.

    With the weighted coefficient Q_1(X) m(X):

        delta_1 = E_alt[Q_1 m] - E_null[Q_1 m],
        sigma_11 = Var_null(Q_1 m),   tau2 = Var_alt(Q_1 m),
        lambda_1 = n * delta_1**2 / sigma_11.

    Under the alternative, b_1 = sqrt(n) (mean(Q_1 m) - alpha_1) is
    approximately N(sqrt(n) delta_1, tau2), so P(T_1 > c) with
    T_1 = b_1**2 / sigma_11 is the returned ``power_t1``.  T_k is a running
    sum of squared innovations, so T_{S_n} >= T_1 and this is a lower bound
    on the power.
    """
    from math import erfc, sqrt

    delta_1 = alpha_alt - alpha_null
    shift = sqrt(n) * abs(delta_1)
    edge = sqrt(critical * sigma_11)
    tau = sqrt(tau2)

    def upper_normal(z: float) -> float:
        return 0.5 * erfc(z / sqrt(2.0))

    power_t1 = (upper_normal((edge - shift) / tau)
                + upper_normal((edge + shift) / tau))
    return {"alpha_null": alpha_null, "alpha_alt": alpha_alt,
            "delta_1": delta_1, "sigma_11": sigma_11, "tau2": tau2,
            "lambda_1": n * delta_1 ** 2 / sigma_11, "power_t1": power_t1}


def alt4_first_order_power(n: int, critical: float, ref_p: float = 0.5) -> dict:
    """First-order power oracle for Alt4 against the Mod2 null.

    Mod2 is X = Poisson(1) + geometric(mean 1); Alt4 draws X from the 50/50
    mixture of Poisson(2) and geometric(mean 2).  Both masses are summed on
    the geometric(ref_p) reference nodes, and Q_1 is the degree-1 polynomial
    orthonormal under the reference mass m; ``_first_order_power`` turns
    the moments of Q_1(X) m(X) into P(T_1 > critical).
    """
    x, m = geometric_nodes(ref_p)
    q1 = gram_schmidt_polynomials(1, x, m)[1]
    null = np.convolve(poisson_masses(1.0, x), geometric_masses(1.0, x))[: x.size]
    alt = 0.5 * poisson_masses(2.0, x) + 0.5 * geometric_masses(2.0, x)
    v = q1 * m
    alpha_null = float(np.dot(null, v))
    alpha_alt = float(np.dot(alt, v))
    sigma_11 = float(np.dot(null, v * v)) - alpha_null ** 2
    tau2 = float(np.dot(alt, v * v)) - alpha_alt ** 2
    return _first_order_power(n, critical, alpha_null, alpha_alt, sigma_11,
                              tau2)


def alt1_first_order_power(n: int, critical: float) -> dict:
    """First-order power oracle for Alt1 against the Mod1 null.

    Mod1 is X = exponential(mean 1) + chi-squared(1), where chi-squared(1)
    is gamma(1/2, 2); Alt1 draws X from the 50/50 mixture of
    exponential(mean 2) and chi-squared(2), both gamma(1, 2), so X is
    exponential with mean 2.  On the exponential reference the moments of
    Q_1(X) m(X) come from the closed-form tilted moments of
    ``gamma_tilted_coefficients``, not from quadrature; ``_first_order_power``
    turns them into P(T_1 > critical).
    """
    alpha_null, sigma = gamma_tilted_coefficients(
        ("gamma", 1.0, 1.0), ("gamma", 0.5, 2.0), 1)
    alpha_alt, tau = gamma_tilted_coefficients(
        ("mix", 0.5, ("gamma", 1.0, 2.0), ("gamma", 1.0, 2.0)),
        ("point", 0.0), 1)
    return _first_order_power(n, critical, float(alpha_null[0]),
                              float(alpha_alt[0]), float(sigma[0, 0]),
                              float(tau[0, 0]))
