"""Matrix exponential by scaling and squaring of Padé approximants, numpy only.

The algorithm is Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31, 970
(2009), Algorithm 5.1, built on Higham, SIAM J. Matrix Anal. Appl. 26, 1179
(2005). Degree and scaling come from exact 1-norms of A^4, A^6, A^8 and A^10,
and triangular input gets Code Fragment 2.1: the exact exponential of the
diagonal and of the first off-diagonal at every squaring. This is the form
``scipy.linalg.expm`` takes for matrices below 400 x 400.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

#: theta_m: the largest eta = max_p ||A^p||^(1/p) for which the degree-m
#: approximant has a backward error below the unit roundoff
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068, 13: 4.25}
#: 1 / |c_{2m+1}|, the leading coefficient of the degree-m backward error series
_C_RECIP = {3: 100800.0, 5: 10059033600.0, 7: 4487938430976000.0,
            9: 5914384781877411840000.0, 13: 113250775606021113483283660800000000.0}
#: numerator coefficients b_0 .. b_m of the degree-m Padé approximant
_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
#: log2 of the unit roundoff of double precision
_LOG2_U = -53.0


def _norm1(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


def _exp_sinch(x: np.ndarray) -> np.ndarray:
    """(e^x[i+1] - e^x[i]) / (x[i+1] - x[i]), and e^x[i] where the two agree."""
    out = np.diff(np.exp(x))
    dx = np.diff(x)
    same = dx == 0.0
    out[~same] /= dx[~same]
    out[same] = np.exp(x[:-1][same])
    return out


def expm(a) -> np.ndarray:
    """exp(A) for a square array A; non-finite powers of A raise NumericalError."""
    a = np.asarray(a)
    rows, cols = np.nonzero(a)
    lower = bool(np.all(cols <= rows))
    upper = bool(np.all(cols >= rows))
    if lower and upper:
        return np.diag(np.exp(np.diag(a)))

    norm = _norm1(a)
    if not math.isfinite(norm):
        raise NumericalError(f"matrix exponential: the matrix has 1-norm {norm}")
    unit = np.abs(a) / norm
    chain = [np.ones(a.shape[0])]  # chain[p] = ones^T unit^p, grown on demand

    def ell(m: int, s: int = 0) -> int:
        """Extra squarings so that |c_{2m+1}| ||abs(B)^(2m+1)||_1 / ||B||_1 <= u
        for B = 2^-s A. ||abs(B)^p||_1 is the largest entry of ones^T abs(B)^p,
        taken of abs(A) / ||A||_1, whose 1-norm is one, so it cannot overflow."""
        while len(chain) <= 2 * m + 1:
            chain.append(chain[-1] @ unit)
        top = chain[2 * m + 1].max()
        if top == 0.0:  # nilpotent, or too small to register: the approximant is exact
            return 0
        log2_alpha = 2 * m * (math.log2(norm) - s) + math.log2(top) - math.log2(_C_RECIP[m])
        return max(math.ceil((log2_alpha - _LOG2_U) / (2 * m)), 0)

    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    d6 = _norm1(a6) ** (1 / 6)
    eta1 = max(_norm1(a4) ** 0.25, d6)
    a8 = None
    s = 0
    if eta1 <= _THETA[3] and ell(3) == 0:
        m = 3
    elif eta1 <= _THETA[5] and ell(5) == 0:
        m = 5
    else:
        a8 = a4 @ a4
        d8 = _norm1(a8) ** 0.125
        eta3 = max(d6, d8)
        if eta3 <= _THETA[7] and ell(7) == 0:
            m = 7
        elif eta3 <= _THETA[9] and ell(9) == 0:
            m = 9
        else:
            m = 13
            eta5 = min(eta3, max(d8, _norm1(a4 @ a6) ** 0.1))
            if not math.isfinite(eta5):
                raise NumericalError("matrix exponential: a power of a matrix with 1-norm "
                                     f"{norm:.6g} has a non-finite 1-norm")
            if eta5 > 0.0:
                s = max(math.ceil(math.log2(eta5 / _THETA[13])), 0)
            s += ell(13, s)

    ident = np.eye(a.shape[0], dtype=a.dtype)
    b = _B[m]
    if m == 13:
        x, x2, x4, x6 = (p * 2.0 ** (-k * s) for k, p in ((1, a), (2, a2), (4, a4), (6, a6)))
        u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
                 + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
        v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
             + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident)
    else:
        powers = (ident, a2, a4, a6, a8)[: (m + 1) // 2]
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
        v = sum(b[2 * k] * p for k, p in enumerate(powers))
    r = np.linalg.solve(v - u, v + u)

    if s and (lower or upper):
        # Code Fragment 2.1: the diagonal and first off-diagonal of each square
        # are replaced by their exact values for 2^-i A
        diag = np.diag(a)
        off = np.diag(a, -1 if lower else 1)
        k = np.arange(a.shape[0])
        band = (k[1:], k[:-1]) if lower else (k[:-1], k[1:])
        r[k, k] = np.exp(diag * 2.0**-s)
        for i in range(s - 1, -1, -1):
            r = r @ r
            scale = 2.0**-i
            r[k, k] = np.exp(diag * scale)
            r[band] = _exp_sinch(diag * scale) * (off * scale)
    else:
        for _ in range(s):
            r = r @ r
    if lower:
        return np.tril(r)
    if upper:
        return np.triu(r)
    return r
