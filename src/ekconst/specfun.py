"""High-accuracy evaluation of the special functions feeding the constant
computations: log Gamma, the digamma psi, the generalized-digamma series

    T(x)   = -log(x)/x - sum_{m>=1} [ log(m+x)/(m+x) - log(m)/m ]
    psi_n(x) = -gamma_n - log(x)^n/x
               - sum_{m>=1} [ log(m+x)^n/(m+x) - log(m)^n/m ]

the reflection pair of Deninger's S function

    S(x)+S(1-x) = log(x)^2
                  + sum_{m>=1} [ log(m+x)^2 + log(m-x)^2 - 2 log(m)^2 ]

and the generalized Euler constants gamma_n.  Every even-character sum
needs S only through this pair, so S(x) alone is not evaluated here.

Series tails are accelerated with Euler-Maclaurin corrections through the
fifth-derivative term; the first omitted term bounds the remainder, and an
evaluation whose bound exceeds the fixed target TARGET_ABS_ERROR raises
NonConvergenceError.  The functions of x take arrays of points only.
psi_n_values starts its series at a truncation point that depends on n and
doubles it, point by point, until the bound meets the target.  T and
S(x)+S(1-x) sum every term m >= 2 as one polynomial in x (in x - 1/2,
respectively in x^2 after S(x)+S(1-x) is folded to x <= 1/2), whose
coefficients are summed once per process: the terms m = 2..63 one by one,
the tail from m = 64 by Euler-Maclaurin.  A point's bound weights the
coefficients' remainders by its powers and adds a bound on the omitted
terms.  psi_n_values(1, x), which keeps its per-point tail, checks T.
log Gamma(x) and psi(x) are log Gamma(1+x) - log x and psi(1+x) - 1/x,
with log Gamma(1+x) and psi(1+x) as their Taylor polynomials in x - 1/2,
whose coefficients, Hurwitz zeta values at 3/2, are summed, bounded and
gated the same way.  No function here needs scipy.  Every function evaluates each of the points it is given independently of
the others, with temporaries of their length; cache.precompute passes a
table to them in blocks.  S(x)+S(1-x) is evaluated by its series alone;
its integral representation, integrated by a double-exponential rule,
lives in the test suite (tests/oracles.py) as an independent reference.

Everything is plain float64; long accumulations use exact (fsum) or pairwise
summation so results carry close to full double accuracy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .multgroup import DomainError

EULER_GAMMA = 0.5772156649015328606
GAMMA1 = -0.0728158454836767249
ZETA_DD_AT_0 = -2.0063564559085848512
LOG_2PI = 1.8378770664093454836

# Bernoulli numbers B_2, B_4, ..., B_20
_B2K = (
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66,
    -691.0 / 2730, 7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330,
)


class NonConvergenceError(ArithmeticError):
    """A series remainder bound stayed above TARGET_ABS_ERROR."""


class DisagreementError(ArithmeticError):
    """Two independent evaluation routes disagreed beyond tolerance."""


# Every series is evaluated to this absolute error, and every cache table
# records it; MAX_TERMS stops psi_n's doubling on a bound that never meets
# it (a NaN, say).
TARGET_ABS_ERROR = 1e-14
MAX_TERMS = 200_000


# ----------------------------------------------------------------------
# small numerical helpers

def _log1p_minus(d: np.ndarray) -> np.ndarray:
    """log1p(d) - d without cancellation (d > -1)."""
    d = np.asarray(d, dtype=np.float64)
    out = np.log1p(d) - d
    small = np.abs(d) < 0.25
    if np.any(small):
        ds = np.where(small, d, 0.0)
        acc = np.zeros_like(ds)
        term = ds.copy()
        for k in range(2, 40):  # sum_{k>=2} (-1)^{k+1} d^k / k
            term = term * ds
            acc += ((-1.0) ** (k + 1)) * term / k
        out = np.where(small, acc, out)
    return out


@lru_cache(maxsize=None)
def _log_poly_family(coeffs: tuple, m0: int, orders: int):
    """Derivatives of P(log u)/u^m0: differentiation maps (P, m) to
    (P' - m P, m+1).  Returns [(P_j, m_j)] for j = 0..orders."""
    fams = [(np.array(coeffs, dtype=np.float64), m0)]
    P, m = fams[0]
    for _ in range(orders):
        dP = np.polynomial.polynomial.polyder(P)
        dP = np.concatenate([dP, np.zeros(len(P) - len(dP))])
        P = dP - m * P
        m += 1
        fams.append((P, m))
    return fams


def _family_eval(fams, j: int, u):
    P, m = fams[j]
    u = np.asarray(u, dtype=np.float64)
    return np.polynomial.polynomial.polyval(np.log(u), P) / u**m


@lru_cache(maxsize=None)
def _log1p_pow_int_coeffs(p: int, nterms: int) -> tuple:
    """Coefficients c_k with (log1p s)^p = sum_k c_k s^{p+k}."""
    base = np.array([(-1.0) ** i / (i + 1) for i in range(nterms)])
    c = np.zeros(nterms)
    c[0] = 1.0
    for _ in range(p):
        c = np.convolve(c, base)[:nterms]
    return tuple(c)


def _int_log1p_pow(p: int, delta: np.ndarray, nterms: int = 24) -> np.ndarray:
    """integral_0^delta (log1p s)^p ds via the power series (|delta| < 1)."""
    c = np.array(_log1p_pow_int_coeffs(p, nterms))
    k = np.arange(nterms)
    delta = np.asarray(delta, dtype=np.float64)
    return (c * delta[..., None] ** (p + k + 1) / (p + k + 1)).sum(axis=-1)


def _binomial_sum(p: int, u, v, jmax: int):
    """sum_{j<jmax} C(p, j) u^j v^(p-j), added term by term from j = 0.

    A loop, not sum(): CPython 3.12's sum() compensates float additions,
    which would change the bits of the scalar gamma_n terms."""
    total = 0.0
    for j in range(jmax):
        total = total + math.comb(p, j) * u**j * v ** (p - j)
    return total


# ----------------------------------------------------------------------
# generalized digamma series: sum_{m>=1} [f(m+x) - f(m)], f(u) = log(u)^n/u

def _psi_series_batch(n: int, x: np.ndarray, start: int):
    """Accelerated sum_{m>=1} [log(m+x)^n/(m+x) - log(m)^n/m].

    Terms m < start are summed directly in a cancellation-free split; the
    tail from m = start is _psi_tail.  Returns (values, remainder_bound).
    """
    x = np.asarray(x, dtype=np.float64)
    ms = np.arange(1.0, start)
    lms = np.log(ms)
    xs = x[:, None]
    L = np.log1p(xs / ms)
    term = -(lms**n) * xs / (ms * (ms + xs))
    if n > 0:
        term = term + _binomial_sum(n, lms, L, n) / (ms + xs)
    tail, remainder = _psi_tail(n, x, float(start))
    return term.sum(axis=1) + tail, remainder


def _psi_tail(n: int, x: np.ndarray, A: float):
    """sum_{m>=A} [log(m+x)^n/(m+x) - log(m)^n/m] by Euler-Maclaurin with
    the exact antiderivative log(u)^{n+1}/(n+1).  Returns (tail, bound on
    its remainder)."""
    lA = math.log(A)
    LA = np.log1p(x / A)
    # integral_A^inf = -(F(A+x) - F(A)), F = log(u)^{n+1}/(n+1)
    integral = -_binomial_sum(n + 1, lA, LA, n + 1) / (n + 1)

    gA = -(lA**n) * x / (A * (A + x))
    if n > 0:
        gA = gA + _binomial_sum(n, lA, LA, n) / (A + x)

    fams = _log_poly_family((0.0,) * n + (1.0,), 1, 8)
    u = A + x
    g1, g3, g5, g7 = (_family_eval(fams, j, u) - _family_eval(fams, j, A)
                      for j in (1, 3, 5, 7))
    tail = integral + gA / 2 - g1 / 12 + g3 / 720 - g5 / 30240
    return tail, np.abs(g7) / 1209600.0


def _series_start(n: int) -> int:
    # Where the per-point doubling starts.  Up to n = 8 the start fixes
    # the values.  From n = 9 no point of the a/q grids of q <= 100 meets
    # the target below 32, nor from n = 13 below 128 (larger powers
    # of log keep the Euler-Maclaurin remainder large for longer), so these
    # starts skip only batches whose values were never used.
    if n <= 4:
        return 64
    if n <= 12:
        return 32
    return 128


def _psi_series_checked(n: int, x: np.ndarray):
    """The series at each point, from the first start (doubling from
    _series_start(n)) whose remainder bound meets the target there.

    Only the points that miss the target are evaluated again, so a value
    does not depend on which points it is evaluated with: it equals the
    value of a one-element call.
    """
    start = _series_start(n)
    vals, rem = _psi_series_batch(n, x, start)
    todo = np.flatnonzero(~(rem <= TARGET_ABS_ERROR))  # NaN misses
    while todo.size:
        if start >= MAX_TERMS:
            raise NonConvergenceError(
                f"tail estimate {float(rem.max()):.2e} above target "
                f"{TARGET_ABS_ERROR:.2e} at MAX_TERMS={MAX_TERMS}"
            )
        start = min(start * 2, MAX_TERMS)
        vals[todo], rem = _psi_series_batch(n, x[todo], start)
        miss = ~(rem <= TARGET_ABS_ERROR)
        todo, rem = todo[miss], rem[miss]
    return vals


def psi_n_values(n: int, x: np.ndarray) -> np.ndarray:
    """Generalized digamma psi_n on an array of points in (0, 1], n >= 0;
    psi_n(1) = -gamma_n exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    if not np.all((0 < x) & (x <= 1)):
        raise ValueError("psi_n requires 0 < x <= 1")
    g = gamma_n(n)
    out = np.full_like(x, -g)
    inner = np.flatnonzero(x < 1.0)
    xi = x[inner]
    series = _psi_series_checked(n, xi)
    # math.log, not np.log: the two differ in the last bit at some points
    closed = np.array([math.log(v) ** n / v for v in xi.tolist()])
    out[inner] = -g - closed - series
    return out


# ----------------------------------------------------------------------
# T and S(x)+S(1-x): the term m = 1 directly, every m >= 2 in one polynomial

_SERIES_START = 64
_T_BULK_DEGREE = 28        # in x - 1/2; omitted terms below 2e-20
_S_PAIR_BULK_DEGREE = 14   # in x^2; omitted terms below 6e-19


def _horner(coeffs, t: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] t^k by Horner's rule, in place: the same values as
    np.polynomial.polynomial.polyval without its temporaries."""
    acc = np.full_like(t, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= t
        acc += c
    return acc


def _fixed_start_checked(batch, x: np.ndarray, what: str) -> np.ndarray:
    """batch at the points x; NonConvergenceError where a point's bound
    exceeds the target."""
    vals, rem = batch(np.asarray(x, dtype=np.float64))
    worst = float(rem.max(initial=0.0))
    if not worst <= TARGET_ABS_ERROR:  # a NaN bound fails too
        raise NonConvergenceError(
            f"{what} series remainder bound {worst:.2e} above target "
            f"{TARGET_ABS_ERROR:.2e}")
    return vals


def _harmonic(n: int) -> float:
    return math.fsum(1.0 / j for j in range(1, n + 1))


def _log_integral(alpha: float, beta: float, n: int, a: float) -> float:
    """integral_a^inf (alpha + beta log u)/u^n du, n > 1."""
    return a ** (1 - n) * ((alpha + beta * math.log(a)) / (n - 1)
                           + beta / (n - 1) ** 2)


def _em_corrections(fams, j: int, A: float) -> tuple[list, float]:
    """Euler-Maclaurin for sum_{n>=0} g(A+n), g = fams[j], but its integral:
    the terms through g^(5)(A), and as the bound twice the first omitted
    one, which the top orders of T and S(x)+S(1-x) pass by up to 1.4%."""
    g = [float(_family_eval(fams, j + i, A)) for i in range(8)]
    return [g[0] / 2, -g[1] / 12, g[3] / 720, -g[5] / 30240], \
        abs(g[7]) / 604800.0


@lru_cache(maxsize=None)
def _majorant(b: tuple, s_max: float) -> tuple:
    """A quadratic at least sum_j b[j] s^j on [0, s_max], for b[j] >= 0."""
    return b[0], b[1], math.fsum(bj * s_max**j for j, bj in enumerate(b[2:]))


@lru_cache(maxsize=None)
def _t_bulk_poly() -> tuple[tuple, tuple]:
    """(c, r): sum_{m>=2} [f(m+x) - f(m)], f(u) = log(u)/u, is
    sum_{k<=K} c[k] t^k, t = x - 1/2, within sum_{j<=K+1} r[j] |t|^j.

    c[0] = sum_m [f(m+1/2) - f(m)] and c[k] = sum_m f^(k)(m+1/2)/k!, from
    m = 64 by Euler-Maclaurin (c[0] by _psi_tail), within r[k].  As
    f^(k)(u)/k! = (-1)^k (log u - H_k)/u^(k+1), the omitted terms of one m
    are at most (H_k + log u)(|t|/u)^k/u with |t|/u <= 1/5, each at most
    rho = (1 + 1/(K+2))/5 times the one before it; r[K+1] sums their bound
    over m, from m = 64 as an integral.
    """
    K = _T_BULK_DEGREE
    A = _SERIES_START + 0.5
    u = (np.arange(2, _SERIES_START) + 0.5).tolist()
    fams = _log_poly_family((0.0, 1.0), 1, K + 7)
    tail, rem = _psi_tail(1, np.array([0.5]), float(_SERIES_START))
    c = [math.fsum([math.log(v) / v - math.log(v - 0.5) / (v - 0.5)
                    for v in u] + [float(tail[0])])]
    r = [2 * float(rem[0])]
    for k in range(1, K + 1):
        terms, rem = _em_corrections(fams, k, A)
        integral = -float(_family_eval(fams, k - 1, A))
        c.append(math.fsum(_family_eval(fams, k, u).tolist() + [integral]
                           + terms) / math.factorial(k))
        r.append(rem / math.factorial(k))
    rho = (1 + 1 / (K + 2)) / 5
    H, n = _harmonic(K + 1), K + 2
    r.append(math.fsum([(H + math.log(v)) / v**n for v in u]
                       + [_log_integral(H, 1.0, n, A - 1)]) / (1 - rho))
    return tuple(c), tuple(r)


def _t_series_batch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The psi_1 series sum_{m>=1} [f(m+x) - f(m)], f(u) = log(u)/u, at
    x in (0, 1].  Returns (values, remainder_bound)."""
    c, r = _t_bulk_poly()
    t = x - 0.5
    return (np.log1p(x) / (1.0 + x) + _horner(c, t),
            _horner(_majorant(r, 0.5), np.abs(t)))


def _t_batch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    series, rem = _t_series_batch(x)
    return -np.log(x) / x - series, rem


def t_values(x: np.ndarray) -> np.ndarray:
    """T(x) = gamma1 + psi_1(x) on an array of points in (0, 1]."""
    return _fixed_start_checked(_t_batch, x, "T")


@lru_cache(maxsize=None)
def _s_pair_bulk_poly() -> tuple[tuple, tuple]:
    """(C, b): sum_{m>=2} w_m(x) is sum_{k=1}^{K} C[k-1] x^(2k) within
    sum_{j<=K+1} b[j] x^(2j) on (0, 1/2].

    w_m = 2 log(m) log(1-d^2) + log(1+d)^2 + log(1-d)^2, d = x/m, is
    sum_k (2/k)(H_{2k-1} - log m) d^(2k), from m = 64 by Euler-Maclaurin
    with remainder b[k].  For k > K the factor (2/k)|H_{2k-1} - log m| is
    at most (2/(K+1))(H_{2K+1} + log m), and d <= 1/4 makes
    sum_{k>K} d^(2k) at most (16/15) d^(2K+2); b[K+1] sums this bound over
    m, from m = 64 as an integral.
    """
    K = _S_PAIR_BULK_DEGREE
    A = float(_SERIES_START)
    ms = range(2, _SERIES_START)
    C, b = [], [0.0]
    for k in range(1, K + 1):
        H, n = _harmonic(2 * k - 1), 2 * k
        terms, rem = _em_corrections(_log_poly_family((H, -1.0), n, 7), 0, A)
        C.append(2 / k * math.fsum([(H - math.log(m)) / m**n for m in ms]
                                   + [_log_integral(H, -1.0, n, A)] + terms))
        b.append(2 / k * rem)
    H, n = _harmonic(2 * K + 1), 2 * K + 2
    b.append(16 / 15 * 2 / (K + 1) * math.fsum(
        [(H + math.log(m)) / m**n for m in ms]
        + [_log_integral(H, 1.0, n, A - 1)]))
    return tuple(C), tuple(b)


def _s_pair_series_batch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_{m>=1} [log(m+x)^2 + log(m-x)^2 - 2 log(m)^2], the series of
    S(x) + S(1-x) - log(x)^2, at x in (0, 1/2].  Returns (values,
    remainder_bound)."""
    C, b = _s_pair_bulk_poly()
    y = x * x
    return (np.log1p(x) ** 2 + np.log1p(-x) ** 2 + y * _horner(C, y),
            _horner(_majorant(b, 0.25), y))


def _s_pair_batch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # S(x) + S(1-x) is symmetric, and 1 - x is exact in float64 for x >= 1/2
    x = np.minimum(x, 1.0 - x)
    series, rem = _s_pair_series_batch(x)
    return np.log(x) ** 2 + series, rem


def s_pair_values(x: np.ndarray) -> np.ndarray:
    """S(x) + S(1-x) on an array of points in (0, 1), from the symmetric
    series at min(x, 1-x)."""
    return _fixed_start_checked(_s_pair_batch, x, "S pair")


# ----------------------------------------------------------------------
# log Gamma and psi: log Gamma(1+x) and psi(1+x) as their Taylor polynomials
# at x = 1/2, whose coefficients are Hurwitz zeta values at 3/2
# (Abramowitz and Stegun 6.1.33 and 6.3.14, moved from 1 to 3/2)

_LOG_GAMMA_3_2 = -0.12078223763524522234551844578164721
_PSI_3_2 = 0.036489973978576520559023667001244433
_LOG_GAMMA_DEGREE = 34     # in x - 1/2; omitted terms below 9e-19
_PSI_DEGREE = 36           # in x - 1/2; omitted terms below 3e-18


@lru_cache(maxsize=None)
def _zeta_3_2(k: int) -> tuple[float, float]:
    """(zeta(k, 3/2), remainder bound), k >= 2: sum_{n>=1} (n + 1/2)^-k,
    the terms n = 1..63 one by one, the tail from n = 64 by Euler-Maclaurin.
    """
    A = _SERIES_START + 0.5
    terms, rem = _em_corrections(_log_poly_family((1.0,), k, 7), 0, A)
    return math.fsum([(n + 0.5) ** -k for n in range(1, _SERIES_START)]
                     + [_log_integral(1.0, 0.0, k, A)] + terms), rem


def _zeta_poly(head: tuple, terms: list) -> tuple[tuple, tuple]:
    """(c, r): c is head, then (-1)^k zeta(k, 3/2) w for each (k, w) of
    terms but the last, within r.  The last (k, w) is the first omitted
    term: r's last entry bounds the omitted terms over |t| <= 1/2.  Each
    term u^-k of zeta(k, 3/2) is at most 2/3 of u^-(k-1), and w does not
    grow, so each omitted term is at most 1/3 of the one before it, and
    they sum to at most 3/2 of the first."""
    c, r = list(head), [0.0] * len(head)
    for k, w in terms[:-1]:
        z, rem = _zeta_3_2(k)
        c.append((-1) ** k * z * w)
        r.append(rem * w)
    k, w = terms[-1]
    z, rem = _zeta_3_2(k)
    r.append(1.5 * (z + rem) * w)
    return tuple(c), tuple(r)


@lru_cache(maxsize=None)
def _log_gamma_poly() -> tuple[tuple, tuple]:
    """(c, r): log Gamma(3/2 + t) is sum_{k<=K} c[k] t^k within
    sum_{j<=K+1} r[j] |t|^j for |t| <= 1/2: c[0] = log Gamma(3/2),
    c[1] = psi(3/2) and c[k] = (-1)^k zeta(k, 3/2)/k."""
    return _zeta_poly((_LOG_GAMMA_3_2, _PSI_3_2),
                      [(k, 1 / k) for k in range(2, _LOG_GAMMA_DEGREE + 2)])


@lru_cache(maxsize=None)
def _psi_poly() -> tuple[tuple, tuple]:
    """(c, r): psi(3/2 + t) is sum_{k<=K} c[k] t^k within
    sum_{j<=K+1} r[j] |t|^j for |t| <= 1/2: c[0] = psi(3/2) and
    c[k] = (-1)^(k+1) zeta(k+1, 3/2), the derivative of log Gamma's."""
    return _zeta_poly((_PSI_3_2,),
                      [(k + 1, 1.0) for k in range(1, _PSI_DEGREE + 2)])


_LN2_HI = 0.6931471803691238     # 32 bits: e * _LN2_HI is exact
_LN2_LO = 1.9082149292705877e-10  # log 2 - _LN2_HI


def _minus_log(acc: np.ndarray, x: np.ndarray) -> np.ndarray:
    """acc - log x, into acc.  With x = m 2^e, 1/2 <= m < 1, log x is
    e log 2 + log m, and e * _LN2_HI, exact, is subtracted last: near
    x = 0, where -log x is the value, it is rounded once, not twice as
    acc - np.log(x) would round it."""
    m, e = np.frexp(x)
    acc -= np.log(m)
    e = e.astype(np.float64)
    acc -= e * _LN2_LO
    acc -= e * _LN2_HI
    return acc


def _log_gamma_batch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c, r = _log_gamma_poly()
    t = x - 0.5
    return (_minus_log(_horner(c, t), x),
            _horner(_majorant(r, 0.5), np.abs(t)))


def _psi_batch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c, r = _psi_poly()
    t = x - 0.5
    return _horner(c, t) - 1.0 / x, _horner(_majorant(r, 0.5), np.abs(t))


def log_gamma_values(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) = log Gamma(1+x) - log x on an array of points in
    (0, 1]."""
    return _fixed_start_checked(_log_gamma_batch, x, "log Gamma")


def psi_values(x: np.ndarray) -> np.ndarray:
    """psi(x) = psi(1+x) - 1/x on an array of points in (0, 1]."""
    return _fixed_start_checked(_psi_batch, x, "psi")


# ----------------------------------------------------------------------
# generalized Euler constants gamma_n by two independent series groupings

GAMMA_N_MAX = 30

# Mutual-agreement tolerance.  Up to n = 10 the float64 evaluation floor
# sits near 1e-13 and the strict 1e-12 gate applies; beyond that the series
# terms grow like n! and the attainable double-precision floor degrades,
# so the gate widens accordingly.
def _gamma_n_tolerance(n: int) -> float:
    if n <= 10:
        return 1e-12
    if n <= 15:
        return 1e-10
    if n <= 20:
        return 3e-8
    if n <= 25:
        return 3e-6
    return 3e-4


def _gamma_term_a(n: int, m: int) -> float:
    # log(m)^n/m - (1/(n+1)) sum_{j<=n} C(n+1,j) log(m)^j log1p(1/m)^{n+1-j}
    lm = math.log(m)
    L = math.log1p(1.0 / m)
    return lm**n / m - _binomial_sum(n + 1, lm, L, n + 1) / (n + 1)


def _gamma_term_b(n: int, m: int) -> float:
    # log(m)^n (1/m - log1p(1/m)) - (1/(n+1)) sum_{j<n} C(n+1,j) ...
    lm = math.log(m)
    L = math.log1p(1.0 / m)
    first = -(lm**n) * float(_log1p_minus(np.array(1.0 / m)))
    return first - _binomial_sum(n + 1, lm, L, n) / (n + 1)


def _gamma_em_tail(n: int, M: int, term_fn) -> tuple[float, float]:
    """Euler-Maclaurin completion of sum_{m>=M} of the gamma_n term.

    The underlying term function is g(u) = log(u)^n/u
    - [log(u+1)^{n+1} - log(u)^{n+1}]/(n+1); its exact integral from M is
    expanded in powers of log1p so no large quantities cancel.  Correction
    terms are added while the asymptotic series keeps shrinking; returns
    (tail, remainder estimate).
    """
    lM = math.log(M)
    delta = 1.0 / M
    integral = 0.0
    for j in range(n + 1):
        integral += (math.comb(n + 1, j) * lM**j * M
                     * float(_int_log1p_pow(n + 1 - j, np.array(delta), 30)))
    integral /= n + 1
    gM = term_fn(n, M)
    fams = _log_poly_family((0.0,) * n + (1.0,), 1, 2 * len(_B2K) + 1)
    tail = integral + gM / 2
    prev = math.inf
    rem = math.inf
    for k in range(1, len(_B2K) + 1):
        j = 2 * k - 1
        # g^{(j)}(M) = f^{(j)}(M) - [f^{(j-1)}(M+1) - f^{(j-1)}(M)]
        gj = (_family_eval(fams, j, M)
              - (_family_eval(fams, j - 1, M + 1) - _family_eval(fams, j - 1, M)))
        t = -_B2K[k - 1] / math.factorial(2 * k) * float(gj)
        if abs(t) >= prev:
            rem = abs(t)  # asymptotic series turned before converging
            break
        tail += t
        prev = rem = abs(t)
        if rem < 1e-19:
            break
    return tail, rem


def _gamma_n_route(n: int, term_fn, ladder: tuple) -> float:
    """One series grouping, truncated at the first ladder point whose
    Euler-Maclaurin remainder is acceptably small (larger truncations
    improve the tail but amplify float64 noise in the bulk)."""
    rem_ok = _gamma_n_tolerance(n) / 8
    value = math.nan
    for M in ladder:
        value = math.fsum(term_fn(n, m) for m in range(1, M))
        tail, rem = _gamma_em_tail(n, M, term_fn)
        value += tail
        if rem <= rem_ok:
            return value
    return value


@lru_cache(maxsize=None)
def gamma_n(n: int) -> float:
    """Generalized Euler constant gamma_n, 0 <= n <= 30.

    Evaluated through two independent regroupings of the defining series,
    each completed with an Euler-Maclaurin tail from a different truncation
    point; the results must agree within the per-n tolerance.
    """
    if not 0 <= n <= GAMMA_N_MAX:
        raise DomainError(
            f"gamma_n requires 0 <= n <= {GAMMA_N_MAX}, got {n}")
    va = _gamma_n_route(n, _gamma_term_a, (8, 10, 12, 14, 16, 20, 24))
    vb = _gamma_n_route(n, _gamma_term_b, (13, 15, 17, 19, 23, 27))
    tol = _gamma_n_tolerance(n)
    if abs(va - vb) > tol:
        raise DisagreementError(
            f"gamma_{n} routes differ by {abs(va - vb):.3e} (> {tol:.1e})"
        )
    return va
