"""Independent signal-analysis oracles for the tests.

Deliberately built on raw numpy only (no package imports) so the checks
stay decoupled from the code under test.
"""

import numpy as np


def bh4_window(n):
    k = np.arange(n)
    return (0.35875
            - 0.48829 * np.cos(2 * np.pi * k / (n - 1))
            + 0.14128 * np.cos(4 * np.pi * k / (n - 1))
            - 0.01168 * np.cos(6 * np.pi * k / (n - 1)))


def power_spectrum(x, nfft=None):
    """Windowed one-sided power spectrum of the first nfft samples."""
    n = len(x)
    if nfft is None:
        nfft = 1 << int(np.log2(n))
    seg = np.asarray(x[:nfft], dtype=np.float64) * bh4_window(nfft)
    return np.abs(np.fft.rfft(seg)) ** 2


def tone_power(power, rate, freq, nfft, half_width=8):
    """Power summed around one tone bin (covers the window main lobe)."""
    b = int(round(freq / rate * nfft))
    return float(power[max(b - half_width, 0):b + half_width + 1].sum())


def band_noise_power(power, rate, nfft, f_lo, f_hi, exclude_freqs=(),
                     half_width=8):
    """Power in [f_lo, f_hi] with DC and the given tones carved out."""
    lo = int(np.ceil(f_lo / rate * nfft))
    hi = int(np.floor(f_hi / rate * nfft))
    mask = np.zeros(len(power), dtype=bool)
    mask[lo:hi + 1] = True
    mask[:3] = False
    for f in exclude_freqs:
        b = int(round(f / rate * nfft))
        mask[max(b - half_width, 0):b + half_width + 1] = False
    return float(power[mask].sum())


def peak_above(power, rate, nfft, f_lo):
    """Largest single-bin power at or above f_lo."""
    lo = int(np.ceil(f_lo / rate * nfft))
    return float(power[lo:].max())


def thd_db(x, rate, f0, nfft=None, band_hz=20000.0, half_width=8):
    """Total harmonic distortion of x at fundamental f0, in dB."""
    p = power_spectrum(x, nfft)
    nfft = 2 * (len(p) - 1)
    p1 = tone_power(p, rate, f0, nfft, half_width)
    limit = min(band_hz, 0.5 * rate)
    harm = 0.0
    h = 2
    while h * f0 <= limit:
        harm += tone_power(p, rate, h * f0, nfft, half_width)
        h += 1
    if harm == 0.0 or p1 == 0.0:
        return -np.inf
    return 10.0 * np.log10(harm / p1)


def decimate_direct(x, h, m):
    """Direct-form filter, kept every m-th output, delay-compensated:
    y[n] = sum_k h[k] x[n m + D - k], D = (len(h) - 1) // 2, with x zero
    outside its range."""
    if len(x) // m == 0:
        return np.zeros(0)
    d = (len(h) - 1) // 2
    return np.convolve(np.asarray(x, dtype=np.float64), h)[d::m][:len(x) // m]


def leading_edge_bits(codes, bits):
    """Leading-edge PWM frames, one uint8 0/1 per bit: the frame for code c
    is c ones followed by 2^bits - c zeros."""
    ramp = np.arange(2 ** bits)
    frames = ramp[np.newaxis, :] < np.asarray(codes)[:, np.newaxis]
    return frames.astype(np.uint8).reshape(-1)


def round_half_up_quantize(x, bits):
    """Plain (memoryless) rounding onto the [0, 2^bits - 1] code grid."""
    levels = 2 ** bits - 1
    arg = (np.clip(np.asarray(x, dtype=np.float64), -1.0, 1.0) + 1.0) / 2.0
    return np.minimum(np.floor(arg * levels + 0.5), levels).astype(np.int64)


def dequantize(codes, bits):
    levels = 2 ** bits - 1
    return np.asarray(codes, dtype=np.float64) * 2.0 / levels - 1.0


def sine_fit_snr_db(x, rate, f0):
    """SNR against the best least-squares sine at f0 (no package code).

    The basis carries a DC regressor so a constant offset is not charged
    as noise, matching the usual AC-coupled audio convention.
    """
    t = np.arange(len(x)) / rate
    basis = np.column_stack([np.sin(2 * np.pi * f0 * t),
                             np.cos(2 * np.pi * f0 * t),
                             np.ones(len(x))])
    coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
    fit = basis @ coef
    tone = basis[:, :2] @ coef[:2]
    resid = x - fit
    p_sig = float((tone ** 2).mean())
    p_err = float((resid ** 2).mean())
    if p_err == 0.0:
        return np.inf
    return 10.0 * np.log10(p_sig / p_err)


def correlation_delay(r, t):
    """How many samples t lags r, searched over |k| <= n // 2 by direct
    correlation (np.correlate, no FFT), with the peak's offset from a
    parabola through it and its two neighbours (0 at a search end or for
    a flat fit): (integer lag, fraction in [-0.5, 0.5])."""
    n = len(r)
    max_lag = n // 2
    full = np.correlate(np.asarray(r, dtype=np.float64),
                        np.asarray(t, dtype=np.float64), "full")
    # full[n - 1 + k] = sum_j r[j + k] t[j]; t lagging r by d peaks at k = -d
    lags = np.arange(-max_lag, max_lag + 1)
    vals = full[n - 1 - lags]
    peak = int(np.argmax(np.abs(vals)))
    frac = 0.0
    if 0 < peak < len(vals) - 1:
        y0, y1, y2 = vals[peak - 1:peak + 2]
        curve = y0 - 2.0 * y1 + y2
        if abs(curve) > 1e-30:
            frac = float(np.clip(0.5 * (y0 - y2) / curve, -0.5, 0.5))
    return int(lags[peak]), frac


def chain_delay(stages, fir_taps):
    """Delay in input samples of a chain whose rows each give `.rate`, the
    samples out per sample in: every x2 row is a linear-phase fir_taps-tap
    FIR, delaying (fir_taps - 1) / 2 samples at its output rate, so its
    delay scales down by the rates up to and including it."""
    delay, rate = 0.0, 1
    for stage in stages:
        rate *= stage.rate
        if stage.rate == 2:
            delay += (fir_taps - 1) / 2 / rate
    return delay
