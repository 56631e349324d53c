"""Independent oracles the test suite checks the library against.

Everything here deliberately avoids the library's accelerated evaluation
paths: transforms are summed by definition, characters are built
explicitly from a generator, series are summed
by brute force with only elementary tail handling, S is integrated by
quadrature of its integral forms, and primality falls back to trial
division.  The exceptions are s_pair_series_direct and s_series: they sum
their bulk term by term and their Euler-Maclaurin tails point by point,
with library helpers for the derivatives of log(u)^n/u, and s_series
checks its remainder bounds with the library's block check.  gamma1_closed also takes T from the library's table function.
parity_ratios and unpacked_bins read bins through the library's own
unpacking and division, which the oracles here check; s_pair_buffer lays
a table out as the library does.
gammak_aq is the per-cell form of the library's gamma_k(a, q) table: it
takes each psi_n at the one point a/q from the library's psi_n_values and
applies the same binomial formula, so it checks the table's assembly over
arrays, not its series.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ekconst import ek, specfun
from ekconst.fft import Spectrum
from ekconst.multgroup import PrimeContext
from ekconst.specfun import EULER_GAMMA, GAMMA1, LOG_2PI


def sieve(n: int) -> np.ndarray:
    """Boolean primality table for 0..n by Eratosthenes."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return flags


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def odd_primes_up_to(n: int) -> list[int]:
    return [p for p in range(3, n + 1) if trial_division_is_prime(p)]


def a_seq_loop(q: int, g: int) -> np.ndarray:
    """a_k = g^k mod q for k = 0..q-2, one modular product at a time."""
    a_seq = np.empty(q - 1, dtype=np.int64)
    v = 1
    for k in range(q - 1):
        a_seq[k] = v
        v = v * g % q
    return a_seq


# ----------------------------------------------------------------------
# the discrete Fourier transform by its defining sum

NAIVE_LENGTH_LIMIT = 10_000


def naive_dft(x, sign: int = -1) -> np.ndarray:
    """sum_k e(sign*j*k/N) x[k] for every j, in O(N^2): the N roots
    e(sign*t/N), then one block of 256 rows of the N x N matrix at a time
    (16 MB at N = 4096), each entry the root of its phase j*k mod N.

    Limited to N <= 10^4.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    if n < 1:
        raise ValueError("empty input")
    if n > NAIVE_LENGTH_LIMIT:
        raise ValueError(f"naive_dft limited to N <= {NAIVE_LENGTH_LIMIT}")
    k = np.arange(n)
    roots = np.exp(sign * 2j * np.pi * k / n)
    out = np.empty(n, dtype=np.complex128)
    for lo in range(0, n, 256):
        out[lo:lo + 256] = roots[np.outer(k[lo:lo + 256], k) % n] @ x
    return out


# ----------------------------------------------------------------------
# transforms and route s in long double
#
# scipy.fft transforms long-double input in long double (eps 1.1e-19 on
# x86-64), so these carry the float64 table values through the transforms,
# the divisions and the sums with almost no rounding of their own.  Table
# error is common to them and to the library: they check transforms,
# unpacking, division and summation, not the series.

EULER_GAMMA_36 = np.longdouble("0.577215664901532860606512090082402431")
LOG_2PI_36 = np.longdouble("1.83787706640934548356065947281123527")


def long_double_bins(values) -> np.ndarray:
    """Every bin of the transform of values (indexed by k), by scipy.fft
    in long double."""
    from scipy.fft import fft
    return fft(np.asarray(values, dtype=np.clongdouble))


def parity_ratios(num: Spectrum, den: Spectrum, roots, odd: bool,
                  scale: float, what: str) -> np.ndarray:
    """N[i] / (scale * D[i]) for the characters i of one parity, as
    compute_ek divides the blocks of ek.character_blocks(num, den, roots),
    in the order of the characters: odd, index t for character 2t+1; even,
    index t-1 for character 2t."""
    blocks = sorted(((i, ek._ratio(a, b, scale, what)) for i, a, b in
                     ek.character_blocks(num, den, roots) if i % 2 == odd),
                    key=lambda block: block[0])
    return (np.concatenate([r for _, r in blocks]) if blocks
            else np.empty(0, dtype=complex))


def unpacked_bins(z: Spectrum, roots, odd: bool) -> np.ndarray:
    """One parity of the transform whose packed spectrum is z, indexed as
    parity_ratios indexes it: its ratios over the all-ones spectrum, the
    packed transform of a unit impulse, whose bins are all 1."""
    ones = Spectrum(np.ones(len(z), dtype=complex))
    return parity_ratios(z, ones, roots, odd, 1, "test")


def s_pair_buffer(s: np.ndarray) -> np.ndarray:
    """A new real array of twice the length of the S pair values s, s in
    its lower half, as ek.s_pair_bernoulli takes it."""
    y = np.empty(2 * len(s))
    y[:len(s)] = s
    return y


def route_s_long_double(ctx: PrimeContext, log_gamma_vals,
                        s_pair_vals) -> tuple:
    """(ek_diff, ek_plus) of route s in long double from the float64
    LOGGAMMA and S_PAIR values: scipy.fft.rfft of log Gamma, of a_k/q and
    of the S pair values (whose bin t is bin 2t of the full transform),
    the ratios of the odd and of the even bins, and each conjugate pair of
    characters summed as 2 Re, the self-conjugate bin j = m once.  No
    twiddle is needed."""
    from scipy.fft import rfft
    ld = np.longdouble
    q, m = ctx.q, ctx.m
    lg = rfft(np.asarray(log_gamma_vals, dtype=ld))        # bins 0..m
    bern = rfft(a_seq_loop(q, ctx.g).astype(ld) / ld(q))
    sp = rfft(np.asarray(s_pair_vals, dtype=ld))
    odd = lg[1::2] / bern[1::2]                  # j = 1, 3, ... <= m
    even = -0.5 * sp[1:] / lg[2::2]              # j = 2, 4, ... <= m
    shift = EULER_GAMMA_36 + LOG_2PI_36
    return (m * shift + _pair_sum(odd, m % 2 == 1),
            EULER_GAMMA_36 + (m - 1) * shift + _pair_sum(even, m % 2 == 0))


def _pair_sum(terms: np.ndarray, ends_at_m: bool):
    """The sum over the characters of one parity, from the terms of its
    bins j <= m: twice the real part of each, once that of bin m."""
    if ends_at_m:
        return 2 * np.sum(terms.real[:-1]) + terms.real[-1]
    return 2 * np.sum(terms.real)


# ----------------------------------------------------------------------
# explicit Dirichlet characters and direct character sums

def character_table(ctx: PrimeContext) -> np.ndarray:
    """chars[j, k] = chi_1^j(a_k) = e(jk/(q-1)) for j = 0..q-2."""
    n = ctx.q - 1
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * (j * k % n) / n)


def direct_l_values(ctx: PrimeContext, log_gamma_vals: np.ndarray,
                    s_vals_by_a: np.ndarray) -> dict[int, complex]:
    """L'/L(1, chi_1^j) for every nontrivial j, assembled by direct
    summation over explicitly constructed characters.

    log_gamma_vals is indexed by k (generator order); s_vals_by_a holds
    S(a/q) indexed by a = 1..q-1 so the even-character sums run over all
    residues without any decimation shortcut.
    """
    q = ctx.q
    chars = character_table(ctx)
    out: dict[int, complex] = {}
    a_seq = a_seq_loop(q, ctx.g)
    a_over_q = a_seq / q
    for j in range(1, q - 1):
        chi_bar = np.conj(chars[j])
        if j % 2 == 1:  # odd character
            bern = np.sum(chi_bar * a_over_q)
            num = np.sum(chi_bar * log_gamma_vals)
            out[j] = EULER_GAMMA + LOG_2PI + num / bern
        else:           # even character
            num = np.sum(chi_bar * s_vals_by_a[a_seq - 1])
            den = np.sum(chi_bar * log_gamma_vals)
            out[j] = EULER_GAMMA + LOG_2PI - 0.5 * num / den
    return out


# ----------------------------------------------------------------------
# brute-force series for the special-function spot values

def digamma_bruteforce(x: float, terms: int = 200_000) -> float:
    """psi(x) from the defining series with a two-term integral tail."""
    ms = np.arange(1.0, terms)
    total = float(np.sum(1.0 / ms - 1.0 / (ms + x)))
    # tail of sum [1/m - 1/(m+x)] from m = terms: integral + trapezoid term
    a = float(terms)
    tail = math.log1p(x / a) + 0.5 * (1.0 / a - 1.0 / (a + x))
    return -EULER_GAMMA - 1.0 / x + total + tail


def log_gamma_bruteforce(x: float, terms: int = 200_000) -> float:
    """log Gamma(x) from the log of the Weierstrass product, with the
    integral-plus-trapezoid tail of sum [x/m - log1p(x/m)]."""
    ms = np.arange(1.0, terms)
    total = float(np.sum(x / ms - np.log1p(x / ms)))
    a = float(terms)
    integral = (a + x) * math.log1p(x / a) - x
    boundary = 0.5 * (x / a - math.log1p(x / a))
    return -EULER_GAMMA * x - math.log(x) + total + integral + boundary


def t_bruteforce(x: float, terms: int = 2_000_000) -> float:
    """T(x) by raw partial sums plus an integral-plus-trapezoid tail."""
    ms = np.arange(1.0, terms, dtype=np.float64)
    total = float(np.sum(np.log(ms + x) / (ms + x) - np.log(ms) / ms))
    a = float(terms)
    la, lax = math.log(a), math.log(a + x)
    integral = (la**2 - lax**2) / 2.0
    boundary = 0.5 * (lax / (a + x) - la / a)
    return -math.log(x) / x - (total + integral + boundary)


def s_bruteforce(x: float, terms: int = 2_000_000) -> float:
    """S(x) by raw partial sums of the defining series plus integral tail."""
    ms = np.arange(1.0, terms, dtype=np.float64)
    lm = np.log(ms)
    d = x / ms
    total = float(np.sum(2.0 * lm * (np.log1p(d) - d) + np.log1p(d) ** 2))
    a = float(terms)
    # integral of [log(u+x)^2 - log(u)^2 - 2x log(u)/u] from a
    la = math.log(a)
    phi = lambda u: u * (math.log(u) ** 2 - 2 * math.log(u) + 2)
    integral = x * la**2 - (phi(a + x) - phi(a))
    g_a = (math.log(a + x) ** 2 - la**2 - 2 * x * la / a)
    return 2 * GAMMA1 * x + math.log(x) ** 2 + total + integral + 0.5 * g_a


# ----------------------------------------------------------------------
# pieces of the per-point Euler-Maclaurin tails of s_series and
# s_pair_series_direct; the library sums its tails inside the coefficients
# of its polynomials instead

def _h_fams():
    # 2 log(u)/u and its derivatives
    return specfun._log_poly_family((0.0, 2.0), 1, 8)


@lru_cache(maxsize=None)
def _atanh_int_coeffs(nterms: int) -> tuple:
    # integral of 2 atanh(s): sum 2 d^{2k+2} / ((2k+1)(2k+2))
    return tuple(2.0 / ((2 * k + 1) * (2 * k + 2)) for k in range(nterms))


@lru_cache(maxsize=None)
def _sym_cross_coeffs(nterms: int) -> tuple:
    # coefficients of log(1-s^2) * 2 atanh(s) = sum c_j s^{2j+3}
    la = np.array([-1.0 / (j + 1) for j in range(nterms)])
    at = np.array([2.0 / (2 * i + 1) for i in range(nterms)])
    return tuple(np.convolve(la, at)[:nterms])


# ----------------------------------------------------------------------
# S(x) by its accelerated series
#
#     S(x) = 2*gamma1*x + log(x)^2
#            + sum_{m>=1} [ log(m+x)^2 - log(m)^2 - 2x*log(m)/m ]
#
# The even-character sums need S only through S(x)+S(1-x), which the
# library evaluates by its own symmetric series; the direct character sums
# of direct_l_values take S(a/q) one residue at a time from here.

def s_series(x: np.ndarray) -> np.ndarray:
    """S(x) on an array of points in (0, 1): terms m < 64 summed one by one,
    an Euler-Maclaurin tail from m = 64, and NonConvergenceError where its
    remainder bound exceeds specfun.TARGET_ABS_ERROR."""
    from ekconst.specfun import (_family_eval, _fixed_start_checked,
                                 _int_log1p_pow, _log1p_minus,
                                 _log_poly_family)

    A = 64.0
    ms = np.arange(1.0, A)
    lms = np.log(ms)
    lA = math.log(A)
    h = _h_fams()
    dfam = _log_poly_family((0.0, 1.0), 1, 8)  # log(u)/u and derivatives

    def batch(x):
        d = x[:, None] / ms
        v = 2.0 * lms * _log1p_minus(d) + np.log1p(d) ** 2
        bulk = v.sum(axis=1)
        delta = x / A
        integral = -A * (2.0 * lA * _int_log1p_pow(1, delta)
                         + _int_log1p_pow(2, delta))
        gA = 2.0 * lA * _log1p_minus(delta) + np.log1p(delta) ** 2

        def deriv(j):
            return (_family_eval(h, j, A + x) - _family_eval(h, j, A)
                    - 2.0 * x * _family_eval(dfam, j + 1, A))
        tail = (integral + gA / 2 - deriv(0) / 12 + deriv(2) / 720
                - deriv(4) / 30240)
        rem = np.abs(deriv(6)) / 1209600.0
        return 2.0 * GAMMA1 * x + np.log(x) ** 2 + bulk + tail, rem

    return _fixed_start_checked(batch, x, "S")


# ----------------------------------------------------------------------
# the S(x)+S(1-x) series with its terms m < start summed one by one
#
# The library sums every term m >= 2 of this series as one polynomial in
# x, the tail from m = 64 inside its coefficients; this is the series with
# its terms m < start summed one by one and its own Euler-Maclaurin tail at
# each point, the tail integral's power series summed column by column.
# (The psi_1 series that T uses keeps such a per-point form in
# specfun._psi_series_batch.)

def s_pair_series_direct(x: np.ndarray, start: int = 64):
    """sum_{m>=1} [log(m+x)^2 + log(m-x)^2 - 2 log(m)^2] for 0 < x < 1;
    returns (values, remainder bound)."""
    from ekconst.specfun import _family_eval

    x = np.asarray(x, dtype=np.float64)
    A = float(start)
    ms = np.arange(1.0, A)
    lms = np.log(ms)
    d = x[:, None] / ms
    w = 2.0 * lms * np.log1p(-d * d) + np.log1p(d) ** 2 + np.log1p(-d) ** 2
    bulk = w.sum(axis=1)

    lA = math.log(A)
    delta = x / A
    nt = 10
    k = np.arange(nt)
    T1 = (np.array(_atanh_int_coeffs(nt))
          * delta[:, None] ** (2 * k + 2)).sum(axis=1)
    T2 = (np.array(_sym_cross_coeffs(nt)) * delta[:, None] ** (2 * k + 4)
          / (2 * k + 4)).sum(axis=1)
    integral = -A * (2.0 * lA * T1 + T2)
    gA = (2.0 * lA * np.log1p(-delta * delta)
          + np.log1p(delta) ** 2 + np.log1p(-delta) ** 2)
    h = _h_fams()

    def deriv(j):
        return (_family_eval(h, j, A + x) + _family_eval(h, j, A - x)
                - 2.0 * _family_eval(h, j, A))
    tail = (integral + gA / 2 - deriv(0) / 12 + deriv(2) / 720
            - deriv(4) / 30240)
    return bulk + tail, np.abs(deriv(6)) / 1209600.0


# ----------------------------------------------------------------------
# S and S(x)+S(1-x) from their integral representations
#
#     S(x)        = 2 int_0^inf [ (x-1)e^{-t} + (e^{-xt}-e^{-t})/(1-e^{-t}) ]
#                   (gamma + log t)/t dt
#     S(x)+S(1-x) = 2 int_0^inf [ -3 + e^{-t} + e^{xt} + e^{(1-x)t} ]
#                   (gamma + log t)/(t(e^t - 1)) dt
#
# decay like e^{-ct} with c = x, respectively c = min(x, 1-x); the second
# form converges for 0 < x < 1 since the e^t in the denominator dominates
# the e^{xt} and e^{(1-x)t} growth.  Both are integrated with a
# double-exponential rule on t = exp(u - exp(-u))/c, doubling the node
# density until successive levels agree.  The library evaluates
# S(x)+S(1-x) by its series only, so this route is independent of it.

class QuadratureError(ArithmeticError):
    """Successive quadrature levels failed to agree within tolerance."""


def _de_grid(level: int, umax: float = 4.2):
    h = 1.0 / (1 << level)
    npos = int(math.floor(umax / h))
    u = np.arange(-npos, npos + 1) * h
    eu = np.exp(-u)
    tau = np.exp(u - eu)          # maps R onto (0, inf)
    w = tau * (1.0 + eu) * h      # d(tau)/du * h
    return tau, w


def _s_pair_integrand(t: np.ndarray, x: float) -> np.ndarray:
    """N(t)/(t(e^t-1)), N = -3 + e^-t + e^{xt} + e^{(1-x)t}; stable form.

    Written with negative exponents only so nothing overflows, and as a
    power series below t = 1/2 where the direct form cancels.
    """
    big = t >= 0.5
    out = np.empty_like(t)
    tb = t[big]
    num = (-3.0 * np.exp(-tb) + np.exp(-2.0 * tb)
           + np.exp(-(1.0 - x) * tb) + np.exp(-x * tb))
    out[big] = num / (tb * (-np.expm1(-tb)))
    ts = t[~big]
    acc = np.zeros_like(ts)
    tk = ts
    fact = 1.0
    for k in range(2, 19):
        tk = tk * ts
        fact *= k
        acc += tk * (x**k + (1.0 - x) ** k + (-1.0) ** k) / fact
    out[~big] = acc / (ts * np.expm1(ts))
    return out


def _s_single_integrand(t: np.ndarray, x: float) -> np.ndarray:
    """A(t)/t, A = (x-1)e^{-t} + (e^{-xt}-e^{-t})/(1-e^{-t}); stable form."""
    big = t >= 0.5
    out = np.empty_like(t)
    tb = t[big]
    B = (np.exp(-x * tb) - np.exp(-tb)) / (-np.expm1(-tb))
    out[big] = ((x - 1.0) * np.exp(-tb) + B) / tb
    ts = t[~big]
    # A = (x-1)em1(-t) + (1-x)(Q(t)-1) with Q the small-t ratio expansion
    K = 18
    bk = [(-1.0) ** i * (1.0 - x ** (i + 1)) / math.factorial(i + 1)
          / (1.0 - x) for i in range(K)]
    dk = [(-1.0) ** j / math.factorial(j + 1) for j in range(K)]
    qk = []
    for kk in range(K):
        v = bk[kk]
        for ii in range(1, kk + 1):
            v -= dk[ii] * qk[kk - ii]
        qk.append(v)
    acc = np.zeros_like(ts)
    tp = np.ones_like(ts)
    for kk in range(1, K):
        tp = tp * ts
        acc += qk[kk] * tp
    A = (x - 1.0) * np.expm1(-ts) + (1.0 - x) * acc
    out[~big] = A / ts
    return out


def _de_integrate(x: float, c: float, integrand, levels: int,
                  target: float) -> float:
    """2 * int_0^inf integrand(t, x) * (gamma + log t) dt.

    The abscissa is scaled by the decay parameter c so the double-exponential
    rule sees a unit-rate tail regardless of x.  Raises QuadratureError when
    `levels` doublings leave two successive levels more than target/4 apart.
    """
    tol = target / 4.0
    prev = math.inf
    for level in range(levels + 1):
        tau, w = _de_grid(level)
        t = tau / c
        f = integrand(t, x) * (EULER_GAMMA + np.log(t))
        val = 2.0 * float((f * (w / c)).sum())
        if abs(val - prev) <= tol + 8 * np.finfo(float).eps * abs(val):
            return val
        prev = val
    raise QuadratureError(
        f"x={x} did not settle to {tol:.2e} within {levels} level doublings"
    )


def s_integral(x: float, levels: int = 10, target: float = 1e-14) -> float:
    """S(x) for 0 < x < 1 by quadrature of its integral form."""
    return _de_integrate(x, x, _s_single_integrand, levels, target)


def s_pair_integral(x: float, levels: int = 10,
                    target: float = 1e-14) -> float:
    """S(x) + S(1-x) for 0 < x < 1 by quadrature of the symmetric form."""
    return _de_integrate(x, min(x, 1.0 - x), _s_pair_integrand, levels,
                         target)


def gamma_k_aq_bruteforce(k: int, a: int, q: int,
                          n_total: int = 10_000_000) -> float:
    """gamma_k(a, q) from raw progression partial sums.

    Midpoint-corrected partial sums at three doubling checkpoint sizes,
    combined by Richardson extrapolation.
    """

    def corrected_partial(J: int) -> float:
        ms = a + q * np.arange(J, dtype=np.float64)
        f = np.log(ms) ** k / ms if k else 1.0 / ms
        s = float(np.sum(f))
        mstar = a + (J - 0.5) * q
        lm = math.log(mstar)
        s -= lm ** (k + 1) / (q * (k + 1))
        if k:
            fprime = lm ** (k - 1) * (k - lm) / mstar**2
        else:
            fprime = -1.0 / mstar**2
        return s + q * q / 24.0 * fprime

    J = max(n_total // q, 16)
    r1 = corrected_partial(J // 4)
    r2 = corrected_partial(J // 2)
    r4 = corrected_partial(J)
    s2 = (4 * r2 - r1) / 3
    s4 = (4 * r4 - r2) / 3
    return (8 * s4 - s2) / 7


@lru_cache(maxsize=None)
def psi_n_at(n: int, x: float) -> float:
    """psi_n(x) at one point, through a one-element psi_n_values call."""
    return float(specfun.psi_n_values(n, np.array([x]))[0])


def gammak_aq(k: int, a: int, q: int) -> float:
    """gamma_k(a, q) = -(1/q) [log(q)^{k+1}/(k+1)
    + sum_{n<=k} C(k,n) log(q)^{k-n} psi_n(a/q)], one cell at a time."""
    lq = math.log(q)
    total = lq ** (k + 1) / (k + 1)
    for n in range(k + 1):
        total += math.comb(k, n) * lq ** (k - n) * psi_n_at(n, a / q)
    return -total / q


def gamma0_closed(a: int, q: int) -> float:
    """gamma_0(a, q) = -(log q + psi(a/q))/q, psi from scipy.special; the
    a = q row collapses to (gamma - log q)/q since psi(1) = -gamma."""
    from scipy.special import digamma
    lq = math.log(q)
    if a == q:
        return (EULER_GAMMA - lq) / q
    return -(lq + float(digamma(a / q))) / q


def gamma1_closed(a: int, q: int) -> float:
    """gamma_1(a, q) = (gamma1 - log(q)^2/2 - log(q) psi(a/q) - T(a/q))/q,
    T from specfun.t_values; the a = q row uses psi(1) = -gamma, T(1) = 0."""
    from scipy.special import digamma
    lq = math.log(q)
    if a == q:
        return (GAMMA1 + EULER_GAMMA * lq - lq * lq / 2) / q
    t = float(specfun.t_values(np.array([a / q]))[0])
    return (GAMMA1 - lq * lq / 2 - lq * float(digamma(a / q)) - t) / q


def gamma_n_bruteforce(n: int, terms: int = 4_000_000) -> float:
    """gamma_n straight from its limit definition (low accuracy, ~1e-7)."""
    ms = np.arange(1.0, terms, dtype=np.float64)
    return float(np.sum(np.log(ms) ** n / ms)) \
        - math.log(terms) ** (n + 1) / (n + 1) \
        - 0.5 * math.log(terms) ** n / terms


# ----------------------------------------------------------------------
# greedy offsets by the literal definition

def reciprocal_sum(b) -> float:
    """m(C) = sum of 1/b over the offsets after the leading zero."""
    return math.fsum(1.0 / v for v in b[1:])


def greedy_offsets_bruteforce(count: int) -> list[int]:
    """Smallest-next-integer sequence, re-checking admissibility of the
    whole prefix against every prime r up to the prefix length."""
    b = [0]
    while len(b) < count:
        c = b[-1]
        while True:
            c += 1
            ok = True
            for r in range(2, len(b) + 2):
                if not trial_division_is_prime(r):
                    continue
                residues = {v % r for v in b} | {c % r}
                if len(residues) >= r:
                    ok = False
                    break
            if ok:
                break
        b.append(c)
    return b
