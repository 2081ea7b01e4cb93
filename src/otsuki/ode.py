"""DOP853, the explicit Runge-Kutta pair of order 8(5, 3) of Dormand and
Prince, for the fundamental solutions of the boundary-form route.

It takes the steps of scipy's ``solve_ivp(method="DOP853")`` bit for bit:
the same tableau, initial step, step-size control and error norm, each
made of the same IEEE operations in the same order.  ``np.dot`` goes
through BLAS, and a sum written out by hand would round differently.  It
supports only what that route asks for: forward in time, a scalar
``atol``, and the state at the end of the interval.

The right-hand side is called as ``fun(t, y, out)`` and writes f(t, y)
into out, which is the stage's row of the stage array K.  A stage sum is
``np.dot(K[:s].T, a, out=dy); dy *= step; np.add(y, dy, out=ys)``, the
same gemv, products and sums as scipy's ``y + np.dot(K[:s].T, a) * h``,
into buffers made once per integration, so no stage allocates an array.
``step`` holds h as a 0-d float64 array, by which numpy scales an array
faster than by a Python float, with the same bits.  Step control runs on
Python floats.

The coefficients are those of Hairer, Norsett and Wanner, Solving
Ordinary Differential Equations I, Sec. II.10, as scipy's
``integrate/_ivp/dop853_coefficients.py`` gives them (BSD-3-Clause,
Copyright 2001-2002 Enthought, Inc., 2003 SciPy Developers).  Only the
rows of the 12-stage step and its error estimate are kept, not those of
the dense output.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

_SAFETY = 0.9           # multiplies the asymptotic step-size estimate
_MIN_FACTOR = 0.2       # the most a step shrinks after a rejection
_MAX_FACTOR = 10        # the most a step grows after an acceptance
_ERROR_EXPONENT = -1 / 8    # -1 / (error estimator order 7 + 1)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_REACHED_END = "The solver successfully reached the end of the integration interval."

# the stage times c_s, s = 0..11
_C = (
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0)

# row s - 1 holds a_sj, j = 0..s-1: the weights of the earlier stages in
# stage s = 1..11
_A = [np.array(row) for row in (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1))]

# the weights of the order-8 solution
_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2])

# the error weights over the 12 stages and f at the new point: the order-8
# weights less those of the order-3 embedded solution, and the order-5 error
_E3 = np.append(_B, 0.0) - np.array([
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0,
    0.220588235294117647058823529412e-1, 0.0])
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1, 0.0])


class OdeResult(NamedTuple):
    y: np.ndarray       # the state at the end of the interval, or where it failed
    nfev: int           # right-hand-side evaluations
    success: bool
    message: str


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol, f1):
    """A first step from one trial Euler step (Hairer, Norsett and Wanner,
    Sec. II.4), sized for the order-7 error estimator.  f at the trial
    point is written into f1."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    fun(t0 + h0, y1, f1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return float(min(100 * h0, h1, interval_length))


def _error_norm(KT, h, scale, err):
    """The RMS norm, in units of scale, of the step's error estimate: the
    order-5 error, damped where the order-3 error is much larger.  KT is
    K.T; err is overwritten.  A squared norm is sqrt(err . err) ** 2, as
    ``np.linalg.norm`` takes it, so the bits match scipy's."""
    np.dot(KT, _E5, out=err)
    err /= scale
    err5_norm_2 = math.sqrt(err.dot(err)) ** 2
    np.dot(KT, _E3, out=err)
    err /= scale
    err3_norm_2 = math.sqrt(err.dot(err)) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return float(abs(h) * err5_norm_2 / np.sqrt(denom * len(scale)))


def solve_ivp(fun, t_span, y0, *, rtol, atol) -> OdeResult:
    """Integrate y' = f(t, y) from t_span[0] forward to t_span[1], where
    ``fun(t, y, out)`` writes f(t, y) into out.

    Keeps each step's error estimate below atol + rtol |y|, like scipy's
    ``solve_ivp(f, t_span, y0, method="DOP853", rtol=rtol, atol=atol)``,
    and returns its end state.  A step that would have to be shorter than
    ten ulps of t, or that a NaN f makes NaN, ends the integration with
    ``success`` False.  fun must write every entry of out and nothing else.
    """
    t, t_bound = map(float, t_span)
    if not t < t_bound:
        raise ValidationError(f"integrates forward only, got t_span {t_span}")
    y = np.array(y0, dtype=float)
    y_new = np.empty_like(y)
    # the stage state and its increment, the error scale and estimate
    ys, dy, scale, err = np.empty((4, y.size))
    step = np.empty(())
    # K[0] is f at (t, y), K[1:12] the stages and K[12] f at (t + h, y_new);
    # fun writes into rows made once, so it sees the same buffers each step
    K = np.empty((len(_C) + 1, y.size))
    rows = list(K)
    stages = [(K[:s].T, a, c, rows[s])
              for s, (a, c) in enumerate(zip(_A, _C[1:]), start=1)]
    fun(t, y, rows[0])
    h_abs = _initial_step(fun, t, y, t_bound, rows[0], rtol, atol, rows[1])
    nfev = 2
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            # written so that a NaN step, from a NaN f, fails it too
            if not h_abs >= min_step:
                return OdeResult(y, nfev, False, _TOO_SMALL_STEP)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            step[()] = h
            for K_s, a, c, k in stages:
                np.dot(K_s, a, out=dy)
                dy *= step
                np.add(y, dy, out=ys)
                fun(t + c * h, ys, k)
            np.dot(K[:-1].T, _B, out=dy)
            dy *= step
            np.add(y, dy, out=y_new)
            fun(t + h, y_new, rows[-1])
            nfev += 12
            np.abs(y, out=err)
            np.abs(y_new, out=scale)
            np.maximum(err, scale, out=scale)
            scale *= rtol
            scale += atol
            error_norm = _error_norm(K.T, h, scale, err)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR,
                                 _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            # a retry starts again from K[0], which no attempt overwrites
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t = t_new
        y, y_new = y_new, y
        K[0] = K[-1]
    return OdeResult(y, nfev, True, _REACHED_END)
