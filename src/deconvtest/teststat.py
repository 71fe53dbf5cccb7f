"""The data-driven test statistic and its calibration.

From a sample X_1..X_n and null coefficients, form

    bhat_j = n**-0.5 * sum_i (Q_j(X_i) m(X_i) - alpha_j),       j = 1..k,

whiten nested prefixes with one Cholesky factor of the null covariance
to get T_k, select the order S_n as the smallest maximizer of the
Schwarz-penalized sequence T_k - k*log(n), and reject for large T_{S_n}.
Critical values come either from the limiting chi-squared(1) law or from a
Monte Carlo calibration under the null (the default, exact to resampling
noise at finite n).  That critical value depends on the null, n and the
config alone, so an engine calibrates when it is built, and ``run_test``
and study grids share engines through one bounded memo, ``prepared_engine``.

One block loop, ``TestEngine.t_stats``, takes T_{S_n} of rows of Y + Z for
the calibration and for study cells alike.  It draws blocks of ``max(1,
_BLOCK_DRAWS // n)`` rows, block b from its own stream, and takes each
block's statistic before it draws the next, so memory grows with a block,
not with the reps.  On a count reference the empirical coefficients come
from each row's value counts, with the basis evaluated once per distinct
value; elsewhere the basis is evaluated at every observation.  A row's
bhat depends on its values only through those counts, and the counts of n
independent draws of X are Multinomial(n, p) with p the mass function of
X; so with count laws Y and Z a block may draw its rows' counts directly
(``sample_counts``), at a cost that does not grow with n, where that costs
less than drawing the values (``count_masses``): light laws count, while
heavy laws and small n draw every observation in one vectorized call per
block, as continuous references do.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .measures import RngStream, draw_sum
from .nullmodel import (
    CONDITION_CAP, NullCoefficients, NullSpec, compute_coefficients,
    eigen_floor_diagnostics, plain_dict, value_masses,
)

DEFAULT_MC_SEED = 202608
_CALIBRATION_TAG = 0xCA1
_TIE_REL_TOL = 1e-12
_BLOCK_VALUES = 1 << 18  # basis values per block of rows in compute_bhat
_BLOCK_DRAWS = 1 << 18  # draws per calibration block: the stream contract
_BINOMIAL_VALUES = 4  # drawn values that cost as much as one binomial draw
_PRODUCTS_PER_VALUE = 256  # convolution products that cost one drawn value
_MC_SLACK = 1e-9  # rounding slack of the Monte Carlo level rule
_PREPARED_ENGINES = 32  # engines the process keeps (``prepared_engine``)
_ZERO_FROM_REFS = 32  # references whose ``_zero_from`` the process keeps

K_MIN, K_CLAMP_MAX = 3, 15


class DataDomainError(ValueError):
    """Observations or calibration rows outside the reference support."""

    def __init__(self, indices: Sequence[int], detail: str,
                 what: str = "observation"):
        self.indices = list(indices)
        shown = ", ".join(str(i) for i in self.indices[:10])
        more = ", ..." if len(self.indices) > 10 else ""
        super().__init__(f"{detail}: offending {what} indices [{shown}{more}]")


def _is_integer(value) -> bool:
    """An integral type that is not ``bool`` (a flag is not a count)."""
    # an int first: the check against the abstract class costs 0.5 us
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


@dataclass(frozen=True)
class TestConfig:
    """Level, order policy and calibration mode.

    The coefficient method is chosen per null (``compute_coefficients``),
    and the whitened orders stop at ``nullmodel.CONDITION_CAP``.
    """

    __test__ = False  # not a pytest class, despite the name

    alpha: float = 0.05
    k_max: int | str = "auto"
    calibration: str = "mc"
    mc_reps: int = 2000
    mc_seed: int = DEFAULT_MC_SEED

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if self.k_max != "auto":
            if not (_is_integer(self.k_max) and self.k_max >= 1):
                raise ValueError("fixed k_max must be an integer >= 1")
        for name in ("mc_reps", "mc_seed"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        if self.calibration not in ("mc", "asymptotic"):
            raise ValueError("calibration must be 'mc' or 'asymptotic'")
        if self.calibration == "asymptotic" and 1.0 - self.alpha == 1.0:
            raise ValueError(
                f"alpha {self.alpha} is below the asymptotic calibration's "
                "resolution: 1 - alpha rounds to 1")
        if self.calibration == "mc" and self.mc_reps < 100:
            raise ValueError("Monte Carlo calibration needs at least 100 reps")
        if self.calibration == "mc" and _mc_allowed(self.mc_reps,
                                                    self.alpha) < 0:
            need = math.ceil((1.0 - _MC_SLACK) / self.alpha) - 1
            raise ValueError(
                f"alpha {self.alpha} with mc_reps {self.mc_reps} can never "
                "reject: Monte Carlo p-values are at least 1 / (mc_reps + 1); "
                f"use mc_reps >= {need}")

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def _chi2_term(c: float, t: float) -> float:
    """``t**c exp(-t) / Gamma(c + 1)``: one term of the chi-squared laws."""
    return math.exp(c * math.log(t) - t - math.lgamma(c + 1.0))


def _chi2_law(x: float, df: int) -> tuple[float, float, float]:
    """The chi-squared(df) CDF, upper tail and density at x > 0.

    With t = x / 2 and a = df / 2, the upper tail of an integer df is the
    finite sum of ``_chi2_term(c, t)`` over c = a - 1, a - 2, ... >= 0,
    plus ``erfc(sqrt(t))`` for odd df (for df = 1, erfc alone, and the CDF
    erf).  Below t = a + 1 the CDF comes instead from the positive series
    ``_chi2_term(a, t) * (1 + t / (a + 1) + t**2 / ((a + 1)(a + 2)) +
    ...)``, so neither side cancels where it is small: each is one minus
    the other only where it is at least 0.13 (the least, at df = 2).  The
    density is ``_chi2_term(a - 1, t) / 2``, a term both forms hold.
    """
    t, a = 0.5 * x, 0.5 * df
    if df == 1:
        s = math.sqrt(t)
        return (math.erf(s), math.erfc(s),
                math.exp(-t) / (2.0 * math.sqrt(math.pi) * s))
    if t < a + 1.0:
        c, term, total = a, 1.0, 1.0
        while term > 1e-17 * total:  # ratios t / c below 1 and falling
            c += 1.0
            term *= t / c
            total += term
        top = _chi2_term(a, t)
        lower = top * total
        return lower, 1.0 - lower, 0.5 * top * a / t
    c, term, upper = a - 1.0, _chi2_term(a - 1.0, t), 0.0
    density = 0.5 * term
    while c >= 0.0:  # from the largest term down
        upper += term
        term *= c / t
        c -= 1.0
    if df % 2:
        upper += math.erfc(math.sqrt(t))
    return 1.0 - upper, upper, density


def chi2_quantile(p: float, df: int) -> float:
    """The p-quantile of the chi-squared law with df degrees of freedom.

    The asymptotic critical value is ``chi2_quantile(1 - alpha, 1)``.  An
    integer df gives the law the closed form of ``_chi2_law``, which this
    inverts with the standard library's ``math`` alone.  Halley steps act
    on the log of the side that p names: the CDF for p <= 1/2, else the
    upper tail 1 - p, which is exact in floats, so levels near 0 and 1
    keep their relative accuracy.  They start from the Wilson-Hilferty
    cube; for p <= 1/2, from ``2 (p Gamma(df / 2 + 1))**(2 / df)`` where
    that is larger, a point below the quantile since the CDF is below
    ``(x / 2)**(df / 2) / Gamma(df / 2 + 1)``.  A step that would leave the
    bracket of the points seen so far bisects it instead.  Two or three
    evaluations of the law suffice; the result is within 4 ulps of the
    quantile at df = 1, 16 at df = 2 and 1e-13 relative to df = 100.

    ``p = 0`` gives 0.0.  A level outside [0, 1), or a df that is not an
    int >= 1, raises ``ValueError``.
    """
    if not 0 <= p < 1:
        raise ValueError("quantile level must lie in [0, 1)")
    if not (_is_integer(df) and df >= 1):
        raise ValueError(f"degrees of freedom must be an integer >= 1, "
                         f"got {df!r}")
    if p == 0:
        return 0.0
    a, use_upper = 0.5 * df, p > 0.5
    target = 1.0 - p if use_upper else p
    # the normal quantile of the level within 4.5e-4 (Abramowitz & Stegun
    # 26.2.23) gives the Wilson-Hilferty cube
    s = math.sqrt(-2.0 * math.log(target))
    z = s - ((2.515517 + s * (0.802853 + s * 0.010328))
             / (1.0 + s * (1.432788 + s * (0.189269 + s * 0.001308))))
    w = math.sqrt(2.0 / (9 * df))
    x = df * (1.0 - w * w + (z if use_upper else -z) * w) ** 3
    if not use_upper:  # below the quantile, as P(a, t) < t**a / Gamma(a + 1)
        x = max(x, 2.0 * math.exp((math.log(p) + math.lgamma(a + 1.0)) / a))
    lo, hi = 0.0, math.inf
    for _ in range(100):
        t = 0.5 * x
        if t == 0.0:  # the quantile is at the foot of the subnormals
            return x
        lower, upper, pdf = _chi2_law(x, df)
        side, new = (upper if use_upper else lower), math.nan
        if (side > target) == use_upper:
            lo = x
        else:
            hi = x
        # a Halley step on log(side), whose slope is the density over side
        if side > 0.0 < pdf:
            slope = (-pdf if use_upper else pdf) / side
            step = math.log(side / target) / slope
            step /= max(0.5, 1.0 - 0.5 * step * ((a - 1.0) / x - 0.5 - slope))
            new = x - step
            if lo <= new <= hi and abs(step) <= 1e-6 * new:
                return new  # the error left is of order step**3
        if not lo <= new <= hi:
            new = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
        if new == x:
            return x
        x = new
    return x


def compute_bhat(data: np.ndarray, null: NullSpec,
                 coeffs: NullCoefficients, k: int) -> np.ndarray:
    """Centered, sqrt(n)-scaled empirical coefficients bhat_1..bhat_k.

    ``data`` of shape (n,) or (reps, n) gives shape (k,) or (k, reps).  Each
    observation is centered by alpha_j before averaging, so the vector has
    mean zero under the null.  Data outside the reference support, non-finite
    values included, raise ``DataDomainError`` with flat indices.  Where the
    density m(x) underflows to 0 the product Q_j(x) m(x) is 0
    (``ReferenceMeasure.basis_terms``).

    Rows are taken in blocks of about ``_BLOCK_VALUES`` values, so memory
    stays bounded for any number of rows and any observation.  On a count
    reference each row's values are counted (``_count_means``); otherwise
    the basis is evaluated at every point (``_point_means``).  Either way a
    row's arithmetic is the same as for that row alone.
    """
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise ValueError("data must be nonempty")
    if k > coeffs.k:
        raise ValueError(f"requested order {k} exceeds coefficients ({coeffs.k})")
    ok = null.ref.in_support(data)
    if not np.all(ok):
        raise DataDomainError(np.flatnonzero(~ok).tolist(),
                              "data outside the reference support")
    n = data.shape[-1]
    rows = data.reshape(-1, n)
    means = (_count_means if null.ref.discrete else _point_means)(rows, null, k)
    bhat = np.sqrt(n) * (means - coeffs.alphas[:k, None])
    return bhat.reshape((k,) + data.shape[:-1])


def _point_means(rows: np.ndarray, null: NullSpec, k: int) -> np.ndarray:
    """Row means of Q_j(x) m(x), the basis evaluated at every point."""
    reps, n = rows.shape
    step = max(1, _BLOCK_VALUES // (n * (k + 1)))
    means = np.empty((k, reps))
    for lo in range(0, reps, step):
        means[:, lo:lo + step] = null.ref.basis_terms(
            rows[lo:lo + step], k).mean(axis=-1)
    return means


def _count_means(rows: np.ndarray, null: NullSpec, k: int) -> np.ndarray:
    """Row means of Q_j(x) m(x) on integer data, from each row's value counts.

    A block's values are counted with one ``bincount`` on ``value * b +
    row``, or, when the largest value is too wide for that, one row at a
    time with ``np.unique``, and ``_means_from_counts`` adds up the block.
    Values from ``_zero_from`` on, where m is 0, are clipped to it and add 0.
    """
    reps, n = rows.shape
    top = min(float(rows.max()), _zero_from(null.ref))
    width = int(top) + 1
    step = max(1, _BLOCK_VALUES // max(n, k * width))
    means = np.empty((k, reps))
    for lo in range(0, reps, step):
        blk = np.minimum(rows[lo:lo + step], top).astype(np.intp)
        b = blk.shape[0]
        if width <= _BLOCK_VALUES:
            keys = blk * b + np.arange(b)[:, None]
            counts = np.bincount(keys.ravel(), minlength=width * b)
            counts = counts.reshape(width, b)
            values = np.flatnonzero(counts.any(axis=1))
            counts = counts[values].T
        else:  # here b == 1, since k * width > _BLOCK_VALUES
            values, counts = np.unique(blk, return_counts=True)
            counts = counts[None, :]
        means[:, lo:lo + b] = _means_from_counts(values, counts, null, k, n)
    return means


def _means_from_counts(values: np.ndarray, counts: np.ndarray, null: NullSpec,
                       k: int, n: int) -> np.ndarray:
    """Row means of Q_j(x) m(x), shape (k, rows), from value counts.

    ``values`` holds ascending integers and ``counts`` (rows, values) how
    often each row holds each value, n in all.  The basis is evaluated once
    per value; rows go in blocks of about ``_BLOCK_VALUES`` terms, and each
    row's sum runs over the values in ascending order, one ``count * Q_j(v)
    m(v)`` term after another (``cumsum``).  A value a row lacks adds an
    exact zero, so a row's sum does not depend on the rows beside it, nor
    on whether its values came counted or one by one.
    """
    terms = null.ref.basis_terms(np.asarray(values, dtype=float), k)[:, :, None]
    reps, width = counts.shape
    step = max(1, _BLOCK_VALUES // (k * width))
    means = np.empty((k, reps))
    for lo in range(0, reps, step):
        means[:, lo:lo + step] = np.cumsum(
            terms * counts[lo:lo + step].T, axis=1)[:, -1] / n
    return means


@functools.lru_cache(maxsize=_ZERO_FROM_REFS)
def _zero_from(ref) -> float:
    """An integer at and beyond which the count reference's m(x) is 0.

    It starts where m(0) exp(-rate x) drops below half the least subnormal
    double and steps past any rounding of ``density`` there.
    """
    x = math.ceil((1075.0 * math.log(2.0) + math.log(float(ref.density(0.0))))
                  / ref.rate)
    while ref.density(float(x)) > 0:
        x += 1
    return float(x)


def _reach(p: np.ndarray, draws: int) -> int:
    """How many leading cells v of p have ``draws * P(X >= v) >= 1``."""
    return int(np.count_nonzero(np.cumsum(p[::-1])[::-1] * draws >= 1.0))


def count_masses(y, z, ref, rows: int, n: int):
    """``value_masses`` of count laws Y and Z where counting pays, else None.

    Only count laws on a count reference count.  The masses are on 0 ..
    top - 1, top being ``_zero_from(ref)``.  Costs are in drawn values
    (with their share of the statistic): rows * n to draw the values; to
    count, one per mass, one per ``_PRODUCTS_PER_VALUE`` products of their
    convolution (top**2 where that fits, else the cut lengths' product),
    and ``_BINOMIAL_VALUES`` per row and value up to the last, v with ``n *
    P(X >= v) >= 1`` (``_reach``).  Light laws count (Mod2 from n = 50 on
    at 2000 rows).
    """
    if not (ref.discrete and y.discrete and z.discrete):
        return None
    top = int(_zero_from(ref))
    budget = rows * n - 2 * top
    if budget <= 0:
        return None
    my, mz = (law.mass(np.arange(top, dtype=float)) for law in (y, z))
    ly, lz = (int(np.max(np.flatnonzero(m), initial=0)) + 1 for m in (my, mz))
    products = top * top
    if products > _PRODUCTS_PER_VALUE * budget and budget > 2 * top:
        budget, products = budget - 2 * top, ly * lz
    budget -= products / _PRODUCTS_PER_VALUE
    # counting pays only if n P(X >= most) < 1 or p ends before most, and
    # P(X < most) needs no convolution; rounding near 1 is left to p
    most = max(0, int(budget // (_BINOMIAL_VALUES * rows)))
    below = my[:most] @ np.cumsum(mz[:most])[::-1]
    if most < min(ly + lz - 1, top) and n * (1.0 - below) > 1.0 + 1e-6:
        return None
    masses = value_masses(my, mz)
    return masses if _BINOMIAL_VALUES * rows * _reach(masses[1], n) <= budget \
        else None


def sample_counts(values: np.ndarray, p: np.ndarray, rows: int, n: int,
                  gen: np.random.Generator):
    """Value counts of rows rows of n draws from ``value_masses`` p.

    One ``gen.multinomial(n, p_w, size=rows)`` draw over the first w
    cells, those rows * n draws are expected to reach (``_reach``), and a
    tail cell P(X >= w) that always holds top; then one multinomial splits
    each row's tail count t > 0 over ``p[w:] / P(X >= w)``, exact in law
    given t.  Returns the reached values and their counts, shape (rows,
    values), in the narrowest unsigned type that holds n.
    """
    w = min(_reach(p, rows * n), p.size - 1)
    tail = p[w:].sum()
    drawn = gen.multinomial(n, np.append(p[:w], tail), size=rows)
    over = np.flatnonzero(drawn[:, w])
    # with no mass past w, t is rounding, and the last cell, top, takes it
    split = gen.multinomial(drawn[over, w], p[w:] / (tail or 1.0))
    width = w + 1 + int(np.max(np.flatnonzero(split.any(axis=0)), initial=-1))
    out = np.zeros((rows, width), dtype=np.min_scalar_type(n))
    out[:, :w] = drawn[:, :w]
    out[over, w:] = split[:, :width - w]
    return values[:width], out


def t_sequence(bhat: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Whitened squared norms T_1..T_k over nested prefixes, shaped like
    ``bhat``, (k,) or (k, reps): ``_whitened`` by the Cholesky factor of
    ``sigma``, taken on each call (``LinAlgError`` if it has none)."""
    bhat = np.asarray(bhat, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    k = bhat.shape[0]
    if sigma.shape != (k, k):
        raise ValueError("bhat and sigma dimensions disagree")
    return _whitened(bhat, np.linalg.cholesky(sigma))


def _whitened(bhat: np.ndarray, low: np.ndarray) -> np.ndarray:
    """With ``sigma = low low'``, the innovations ``e = low^-1 bhat`` give
    T_j = e_1**2 + ... + e_j**2, so T never decreases.  Forward substitution
    is right-looking: once ``e_j`` is known, ``acc`` adds ``low_ij e_j`` to
    the sum of every later row i, so each inner product is summed in
    ascending order and a column's bits do not depend on the batch."""
    b = bhat.reshape(len(low), -1)
    e, acc = np.empty(b.shape), np.zeros(b.shape)
    for j in range(len(low)):
        np.divide(b[j] - acc[j], low[j, j], out=e[j])
        acc[j + 1:] += low[j + 1:, j, None] * e[j]
    return np.cumsum(e * e, axis=0).reshape(bhat.shape)


def select_order(t_seq: np.ndarray, n: int) -> int | np.ndarray:
    """Smallest maximizer of the penalized sequence T_k - k*log(n).

    ``t_seq`` has shape (k,), giving an int, or (k, reps), giving one order
    per column.  Ties (and near-ties at floating-point resolution) resolve
    to the smallest order.  A non-finite entry raises ``FloatingPointError``,
    since it would otherwise select order 1.
    """
    t_seq = np.asarray(t_seq, dtype=float)
    if t_seq.size == 0:
        raise ValueError("t_sequence must be nonempty")
    if not np.all(np.isfinite(t_seq)):
        raise FloatingPointError("the T sequence holds non-finite values")
    if n < 2:
        raise ValueError("sample size must be at least 2")
    k = t_seq.shape[0]
    pen = t_seq - (np.arange(1, k + 1) * math.log(n)).reshape(
        (k,) + (1,) * (t_seq.ndim - 1))
    top = pen.max(axis=0)
    tol = _TIE_REL_TOL * (1.0 + np.abs(top))
    s_n = np.argmax(pen >= top - tol, axis=0) + 1
    return int(s_n) if t_seq.ndim == 1 else s_n


def default_kmax(n: int) -> int:
    """Order budget clamp(ceil(2 ln n), 3, 15), before the usable-order cap."""
    if n < 2:
        raise ValueError("sample size must be at least 2")
    return min(max(math.ceil(2.0 * math.log(n)), K_MIN), K_CLAMP_MAX)


def _mc_allowed(reps: int, alpha: float) -> int:
    """The largest m = #{calibration >= observed} at which the test rejects:
    the p-value (1 + m) / (reps + 1) is at most alpha iff m is at most this."""
    return math.floor((reps + 1) * alpha - 1.0 + _MC_SLACK)


def _mc_threshold(values: np.ndarray, alpha: float) -> float:
    """The calibration order statistic that a rejected statistic exceeds."""
    reps = values.size
    return float(np.sort(values)[reps - 1 - _mc_allowed(reps, alpha)])


# ---------------------------------------------------------------------------
# Engine: one (null, n, config) prepared once, for single tests and studies
# ---------------------------------------------------------------------------

class TestEngine:
    """Null coefficients, order cap, whitening and calibration for (null, n).

    An engine is built ready, with the Cholesky factor of its used block of
    sigma, its ``critical_value`` and read-only ``calibration`` values
    (``None`` under ``"asymptotic"``); that is the expensive step, and the
    statistic of a batch is a few vectorized passes.  The coefficients take
    the closed form unless ``coeffs`` are given.  Both order policies are
    capped at ``usable_k_max``, beyond which a block falls below the
    condition floor, and before the first order whose pivot is cancellation
    (``LinAlgError`` at order 1); a fixed order that is cut, and a cancelled
    order, leave a note in ``notes``.
    """

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, null: NullSpec, n: int, config: TestConfig,
                 coeffs: NullCoefficients | None = None):
        if n < 2:
            raise ValueError("sample size must be at least 2")
        self.null = null
        self.n = n
        self.config = config
        policy_k = default_kmax(n) if config.k_max == "auto" else config.k_max
        policy_k = min(policy_k, null.ref.family.max_degree)
        if coeffs is None:
            coeffs = compute_coefficients(null, policy_k)
        self.coeffs = coeffs
        self.diagnostics = eigen_floor_diagnostics(coeffs)
        # usable_k_max <= coeffs.k, so a shorter supplied set also caps here
        k = min(policy_k, self.diagnostics.usable_k_max)
        low = np.linalg.cholesky(coeffs.sigma[:k, :k])
        # order j whitens variance only while its pivot L_jj**2 exceeds
        # 1 / CONDITION_CAP of its second moment sigma_jj + alpha_j**2;
        # below that, sigma_jj is what cancellation left of the moment
        pivots = low.diagonal() ** 2
        moments = coeffs.sigma.diagonal()[:k] + coeffs.alphas[:k] ** 2
        kept = pivots * CONDITION_CAP > moments
        used = k if kept.all() else int(kept.argmin())
        cancelled = used < k and (
            f"order {used + 1} is cancellation: its Cholesky pivot "
            f"{pivots[used]:.3e} is at most its second moment "
            f"{moments[used]:.3e} / {CONDITION_CAP:.0e}")
        if used == 0:
            raise np.linalg.LinAlgError(cancelled)
        self.used_k_max, self._factor = used, low[:used, :used]
        self._factor.setflags(write=False)  # read-only, like ``calibration``
        self.notes = ()
        if config.k_max != "auto" and used < config.k_max:
            self.notes = (
                f"order-cut: fixed k_max {config.k_max} requested, "
                f"{used} used (usable order "
                f"{self.diagnostics.usable_k_max})",)
        if cancelled:
            self.notes += (f"order-cut: {cancelled}",)
        mc = config.calibration == "mc"
        self.calibration = self.calibration_values() if mc else None
        self.critical_value = (_mc_threshold(self.calibration, config.alpha)
                               if mc else chi2_quantile(1.0 - config.alpha, 1))

    # -- statistic -----------------------------------------------------

    def statistic_batch(self, samples: np.ndarray):
        """T sequences, selected orders, and T_{S_n} for rows of samples.

        ``samples`` has shape (reps, n) for the engine's n.  Returns
        (t_seq[reps, k], s_n[reps], t_stat[reps]).
        """
        if np.shape(samples)[-1] != self.n:
            raise ValueError(f"engine prepared for n={self.n}, "
                             f"got {np.shape(samples)[-1]}")
        bhat = compute_bhat(samples, self.null, self.coeffs, self.used_k_max)
        return self._select(bhat)

    def _counted(self, values: np.ndarray, counts: np.ndarray):
        """``statistic_batch`` of count rows as ``sample_counts`` gives them
        (one column per support value, n values a row), by ``_count_means``'s
        sums: a counted row keeps the bits of its values."""
        k = self.used_k_max
        means = _means_from_counts(values, counts, self.null, k, self.n)
        bhat = np.sqrt(self.n) * (means - self.coeffs.alphas[:k, None])
        return self._select(bhat)

    def _select(self, bhat: np.ndarray):
        t_seq = _whitened(bhat, self._factor)
        s_n = select_order(t_seq, self.n)
        return t_seq.T, s_n, t_seq[s_n - 1, np.arange(t_seq.shape[1])]

    def sample_null_batch(self, rows: int, stream: RngStream) -> np.ndarray:
        """rows x n null samples, one ``draw_sum(y, z, gen, rows * n)`` draw.

        ``gen`` is ``stream.generator()``, and row r holds draws r n to
        (r + 1) n - 1; the calibration draws each block of rows so.
        """
        return draw_sum(self.null.y, self.null.z, stream.generator(),
                        rows * self.n).reshape(rows, self.n)

    def t_stats(self, y, z, reps: int, stream, draw) -> np.ndarray:
        """T_{S_n} of reps rows of Y + Z, NaN where a row leaves the support.

        Block b of ``max(1, _BLOCK_DRAWS // n)`` rows draws from ``stream(b)``:
        as value counts (``sample_counts``) where ``count_masses`` says so,
        else as ``draw(rows, stream(b))``, rows * n values cut into rows.
        The reps values are allocated first, and each block's statistic is
        taken before the next block is drawn.
        """
        n, ref = self.n, self.null.ref
        step, out = max(1, _BLOCK_DRAWS // n), np.full(reps, np.nan)
        masses = count_masses(y, z, ref, reps, n)
        for b, lo in enumerate(range(0, reps, step)):
            rows, block = min(step, reps - lo), stream(b)
            if masses is not None:
                out[lo:lo + rows] = self._counted(*sample_counts(
                    *masses, rows, n, block.generator()))[2]
                continue
            data = draw(rows, block).reshape(rows, n)
            ok = ref.in_support(data).all(axis=1)
            if ok.all():  # the common case: no copy of the block
                out[lo:lo + rows] = self.statistic_batch(data)[2]
            elif ok.any():
                out[lo + np.flatnonzero(ok)] = self.statistic_batch(data[ok])[2]
        return out

    # -- calibration ---------------------------------------------------

    def calibration_values(self) -> np.ndarray:
        """T_{S_n} over fresh null samples, deterministic given the config seed.

        ``t_stats`` of the null's rows, block b from child stream b of the
        calibration seed, drawn as values by ``sample_null_batch``.  A null
        row outside the reference support raises ``DataDomainError``.
        """
        base = RngStream(self.config.mc_seed, 0).child(_CALIBRATION_TAG, self.n)
        out = self.t_stats(self.null.y, self.null.z, self.config.mc_reps,
                           base.child, self.sample_null_batch)
        bad = np.flatnonzero(np.isnan(out)).tolist()
        if bad:
            raise DataDomainError(bad, "null draws outside the reference "
                                  "support", what="calibration row")
        out.setflags(write=False)  # shared by every caller of the engine
        return out

    def p_value(self, t_stat: float) -> float:
        cal = self.calibration
        if cal is None:  # the chi-squared(1) upper tail
            return math.erfc(math.sqrt(t_stat / 2.0))
        return (1.0 + int(np.sum(cal >= t_stat))) / (cal.size + 1.0)

    def run(self, data: np.ndarray) -> "TestResult":
        data = np.asarray(data, dtype=float)
        if data.ndim != 1 or data.size == 0:
            raise ValueError("data must be a nonempty vector")
        t_seq, s_n, t_stat = self.statistic_batch(data[None, :])
        t0 = float(t_stat[0])
        return TestResult(
            n=self.n,
            t_sequence=t_seq[0].copy(),
            s_n=int(s_n[0]),
            t_stat=t0,
            critical_value=self.critical_value,
            p_value=self.p_value(t0),
            reject=bool(t0 > self.critical_value),
            lambda_mins=self.diagnostics.lambda_mins[: self.used_k_max].copy(),
            used_k_max=self.used_k_max,
            coefficient_method=self.coeffs.method,
            notes=self.notes,
        )


@dataclass
class TestResult:
    """Everything the decision rests on, in selection order; the level and
    the calibration mode it was taken at are the config's."""

    __test__ = False  # not a pytest class, despite the name

    n: int
    t_sequence: np.ndarray
    s_n: int
    t_stat: float
    critical_value: float
    p_value: float
    reject: bool
    lambda_mins: np.ndarray
    used_k_max: int
    coefficient_method: str
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not 1 <= self.s_n <= self.used_k_max:
            raise ValueError("selected order outside [1, used_k_max]")

    def to_dict(self) -> dict:
        return plain_dict(self)


@functools.lru_cache(maxsize=_PREPARED_ENGINES)
def prepared_engine(null: NullSpec, n: int, config: TestConfig) -> TestEngine:
    """The process's shared ``TestEngine(null, n, config)``: nulls and
    configs hash by value and fix the calibration, so it has a fresh one's
    bits.  The ``_PREPARED_ENGINES`` most recently used are kept."""
    return TestEngine(null, n, config)


def run_test(data, null: NullSpec, config: TestConfig = TestConfig(),
             coeffs: NullCoefficients | None = None) -> TestResult:
    """Run the full data-driven test on one sample, on ``prepared_engine``
    unless ``coeffs``, which do not hash, are supplied."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 1 or data.size == 0:
        raise ValueError("data must be a nonempty vector")
    engine = (prepared_engine(null, int(data.size), config) if coeffs is None
              else TestEngine(null, data.size, config, coeffs))
    return engine.run(data)
