"""All P+1 coset interpolants at once: FFT onto a fine grid, one shared window.

With t = x/delta_X and c_k = k*delta_x/delta_X, coset k's interpolant is
S_k(t) = sum_j v_j sinc(t - c_k - j) (see sampling_operator). It is
bandlimited to half a cycle per unit of t, so it is fixed by its values on
the fine grid t = n/q = m + rho/q (q points per delta_X):

1. Fine values. At t = m + rho/q,

       S_k = sum_j v_j h_{k,rho}[m - j],
       h_{k,rho}[d] = sinc(d + s) = (-1)^d sin(pi*s)/(pi*(d + s)),

   with s = rho/q - c_k, a delta at d = -s where s is an integer (k = 0,
   rho = 0 always). Each (k, rho) is one discrete convolution, taken for
   all of them at once with real FFTs of one length. A kernel costs one
   sine and one division per tap.
2. Window. Between fine points, S_k(t) is the Gaussian-regularised
   Shannon series at rate q (Qian, Proc. AMS 131, 2003),

       S_k(t) ~ sum_n S_k(n/q) sinc(q*t - n) exp(-(q*t - n)^2/(2*sigma^2)),

   over the 2*ceil(q*R) fine points n = n0 + i, n0 = floor(q*t) -
   ceil(q*R) + 1, where sigma^2 = q^2*R/(pi*(q - 1)) in fine units. The
   truncation error is of order exp(-pi*R*(q - 1)/2); at q = 3 and R = 10
   the engine stands as close to the dense sum as the Cauchy sum does, a
   few 1e-15 of max|v| on signal samples (both round 2J+1 terms). The
   window depends on t alone, so every coset shares it: one real weight
   per (point, tap) against a real (fine, 2(P+1)) array of fine values.
   The tap distance is
   q*t - (n0 + i) in one rounding, never (q*t - n0) - i, whose first
   rounding loses digits next to a fine point. The sine is taken once per
   point, after the exact reduction q*t = r + f, as (-1)^(r - n) sin(pi*f).

A point within _SINC_SNAP_TOL*delta_X of a sample of coset k returns that
sample exactly, or 0 past |j| = J, as apply_coset_operator does.

Cost: (P+1)*q kernels and FFTs of one length L >= (span of the points in
delta_X) + 2J + 2R, and per point a window of 2*ceil(q*R) weights applied
to 2(P+1) columns, against nx*(2J+1) divisions per coset for the Cauchy
sum; is_cheaper compares the two. Temporaries are O((P+1)*q*L), plus one
block of gathered fine rows of at most _BLOCK_ELEMENTS values, never an
(nx, taps, P+1) array.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .sampling_operator import _BLOCK_ELEMENTS, SampleSet
from .signal_model import _SINC_SNAP_TOL

# fine points per delta_X, and the window's half-width in delta_X
_Q = 3
_R = 10
_TAPS = 2 * math.ceil(_Q * _R)
# 1/(2*sigma^2) in fine units, sigma^2 = q^2*R/(pi*(q - 1))
_GAUSS = math.pi * (_Q - 1) / (2 * _Q * _Q * _R)


def _fft_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, a length pocketfft transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def fine_rows(x, delta_X: float):
    """(q*t, first tap n0) of each point, t = x/delta_X, both as floats."""
    qt = _Q * (x / delta_X)
    return qt, np.floor(qt) - (_TAPS // 2 - 1)


def _fine_range(x: np.ndarray, delta_X: float) -> tuple[int, int]:
    """(m_lo, rows): the fine rows m_lo <= m < m_lo + rows the taps of x read."""
    m_lo = int(fine_rows(x.min(), delta_X)[1]) // _Q
    return m_lo, (int(fine_rows(x.max(), delta_X)[1]) + _TAPS - 1) // _Q - m_lo + 1


def _fine_values(samples: SampleSet, m_lo: int, rows: int) -> np.ndarray:
    """S_k at t = m + rho/q for m_lo <= m < m_lo + rows, as a real array.

    Row (m - m_lo)*q + rho holds the real and imaginary parts of S_0..S_P
    in columns 2k and 2k + 1.
    """
    grid = samples.grid
    J, cosets = grid.J, grid.P + 1
    width = rows + 2 * J  # kernel taps d = m_lo - J .. m_lo + rows - 1 + J
    n = _fft_length(width)
    d = np.arange(m_lo - J, m_lo - J + width, dtype=float)
    s = np.arange(_Q) / _Q - (np.arange(cosets) * grid.delta_x / grid.delta_X)[:, None]
    rs = np.rint(s)
    sr = s - rs
    exact = sr == 0
    # h = (-1)^(d + rs) sin(pi*sr)/(pi*(d + s)); d + s is exact next to its zero
    h = np.add(d, s[..., None])
    h[exact] = 1.0
    np.divide(np.where(d % 2 == 0, 1.0, -1.0), h, out=h)
    h *= (np.where(rs % 2 == 0, 1.0, -1.0) * np.sin(np.pi * sr) / np.pi)[..., None]
    h[exact] = d == -rs[exact][:, None]
    # values as (cosets, 2, 2J+1) real rows: real and imaginary parts
    v = samples.values.view(float).reshape(cosets, 2 * J + 1, 2).transpose(0, 2, 1)
    spectrum = np.fft.rfft(h, n)[:, :, None, :] * np.fft.rfft(v, n)[:, None, :, :]
    conv = np.fft.irfft(spectrum, n)[..., 2 * J : 2 * J + rows]  # (cosets, q, 2, rows)
    return conv.transpose(3, 1, 0, 2).reshape(rows * _Q, 2 * cosets)


def coset_interpolants(samples: SampleSet, x: np.ndarray) -> np.ndarray:
    """S_0..S_P at the finite 1-D points x, shape (P+1, len(x)), complex.

    Agrees with apply_coset_operator(samples, k, x) for every k to a few
    1e-15 of max|v|, and equals it on snapped points.
    """
    grid = samples.grid
    cosets = grid.P + 1
    out = np.empty((x.size, 1, 2 * cosets))
    if x.size:
        m_lo, rows = _fine_range(x, grid.delta_X)
        # window[n] is the view of fine rows n .. n + taps - 1
        window = sliding_window_view(_fine_values(samples, m_lo, rows), _TAPS, axis=0)
        window = window.transpose(0, 2, 1)
        qt, n0 = fine_rows(x, grid.delta_X)
        first = (n0 - _Q * m_lo).astype(np.intp)
        taps = np.arange(_TAPS, dtype=float)[:, None]
        # the gathered rows of a block hold at most _BLOCK_ELEMENTS values
        block = max(1, _BLOCK_ELEMENTS // (_TAPS * 2 * cosets))
        dist = np.empty((_TAPS, min(block, x.size)))
        weights = np.empty_like(dist)
        for i in range(0, x.size, block):
            qt_b, n0_b = qt[i : i + block], n0[i : i + block]
            d, w = dist[:, : qt_b.size], weights[:, : qt_b.size]
            r = np.rint(qt_b)
            # sin(pi*(q*t - n0 - i)) = (-1)^(r - n0 - i) sin(pi*f), f = q*t - r exact
            sine = np.where((r - n0_b) % 2 == 0, 1.0, -1.0) * np.sin(np.pi * (qt_b - r)) / np.pi
            np.add(n0_b, taps, out=d)
            np.subtract(qt_b, d, out=d)  # q*t - (n0 + i), one rounding
            on_fine = d == 0  # q*t is a fine point: the window is a delta
            d[on_fine] = 1.0
            np.divide(sine, d[0::2], out=w[0::2])
            np.divide(-sine, d[1::2], out=w[1::2])
            np.multiply(d, d, out=d)
            d *= -_GAUSS
            w *= np.exp(d, out=d)
            w[on_fine] = 1.0
            np.matmul(w.T[:, None, :], window[first[i : i + block]], out=out[i : i + block])
    values = out[:, 0].view(complex).T.copy()
    # snapped points: the stored sample exactly, as the Cauchy sum gives it
    u = (x - np.arange(cosets)[:, None] * grid.delta_x) / grid.delta_X
    r = np.rint(u)
    snap = np.abs(u - r) < _SINC_SNAP_TOL
    if snap.any():
        k, p = np.nonzero(snap)
        j = r[k, p].astype(int)
        inside = np.abs(j) <= grid.J
        values[k, p] = np.where(inside, samples.values[k, np.clip(j, -grid.J, grid.J) + grid.J], 0)
    return values


def is_cheaper(grid, x: np.ndarray) -> bool:
    """Whether coset_interpolants clearly beats P+1 Cauchy sums at x.

    Modelled times in ns, fitted on 144 shapes (M 0..8, J 64..2048, nx
    10..3000, points in |x| <= J*delta_X/2; best of 3-7 on a 2-vCPU x86-64
    host, numpy 2.4.6):

        Cauchy  (P+1)*(40e3 + 1.5*nx*(2J+1))
        engine  90e3 + (P+1)*(110*L + 70*nx) + 630*nx

    with L = rows + 2J the convolution length, rows the delta_X cells the
    points' windows span (the FFT pads L by under 10%). The models' errors reach 20-25% at the 90th percentile, so the
    engine is taken only where it is modelled at least twice as fast;
    every shape so chosen measured 1.6-15x faster. Below that the Cauchy
    sum, the exact truncated series, stays.
    """
    cosets, nx, J = grid.P + 1, x.size, grid.J
    if nx == 0:
        return False
    _, rows = _fine_range(x, grid.delta_X)
    cauchy = cosets * (40e3 + 1.5 * nx * (2 * J + 1))
    engine = 90e3 + cosets * (110 * (rows + 2 * J) + 70 * nx) + 630 * nx
    return 2 * engine < cauchy
