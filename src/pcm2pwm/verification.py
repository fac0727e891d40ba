"""Objective quality checks: demodulate PWM back to audio and score it.

The demodulator inverts chain's one geometry, so the bit clock gives the
rate: the audio comes out at the chain's input rate, clock_hz / 1024
(PWM_BITS_PER_SAMPLE).  It maps bits onto +-1 and lowpasses at 20 kHz in
two windowed-sinc decimation stages (stopband rejection about 74 dB), by a
PWM frame and then by the interpolators' 2^INTERP_STAGES.  The first stage
runs in the edge domain: a +-1 stream is a sum of steps, so each output is
a sum of cumulative-tap values over the bit transitions in its window, and
its cost follows the transitions rather than the bits, exactly and for any
bitstream.  The second filters samples polyphase, one branch per phase.
Scoring aligns the result against a reference in gain and (fractional)
delay, then reports SNR, THD at the detected fundamental and the 0-20 kHz
noise floor.  SNR is capped at +140 dB so identical streams yield a finite
sentinel.

demodulate_stream cuts the PWM1 payload once, at its entry, into blocks of
at most one chain block's payload (audio_io._cut), however it arrives, and
yields the audio a block at a time, each stage carrying a few hundred
samples of state, so `pcm2pwm roundtrip` feeds it chain.convert_stream's
blocks and never holds a whole PWM stream; every cut gives the same
samples bit for bit.
demodulate is its one-block case, collected.  measure holds whole clips:
the reference, the demodulated audio and their FFTs.  Audio is plain
float64 arrays: demodulate returns one at the chain's input rate, and
measure takes the rate ref and test share.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .audio_io import (_BLOCK, _REAL, MalformedStream, PwmBitstream, _cut,
                       _integer, _payload_blocks, _vector, collect)
from .chain import (FRAME_BITS, INTERP_STAGES, PWM_BITS_PER_SAMPLE,
                    _convolve, windowed_sinc_lowpass)

SNR_CAP_DB = 140.0
AUDIO_BAND_HZ = 20000.0
THD_FLOOR_DB = -140.0

_HARMONIC_HALF_WIDTH = 8  # FFT bins kept around a tone, covers the window lobe
# payload bytes demodulated at a time: what chain.convert_stream makes of
# one block of _BLOCK input samples, 128 KiB
_PAYLOAD_BLOCK = _BLOCK * PWM_BITS_PER_SAMPLE // 8


class LengthMismatch(ValueError):
    """Streams cannot be aligned for comparison."""


@dataclass
class SpectrumReport:
    fundamental_hz: float
    snr_db: float
    thd_db: float
    inband_noise_power: float  # 0-20 kHz noise over fundamental power

    def text(self) -> str:
        return (f"fundamental: {self.fundamental_hz:.1f} Hz\n"
                f"snr: {self.snr_db:.2f} dB\n"
                f"thd: {self.thd_db:.2f} dB\n"
                f"inband noise (rel): {self.inband_noise_power:.3e}\n")

    def csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["fundamental_hz", "snr_db", "thd_db",
                         "inband_noise_power"])
        writer.writerow([f"{self.fundamental_hz:.1f}", f"{self.snr_db:.2f}",
                         f"{self.thd_db:.2f}",
                         f"{self.inband_noise_power:.6e}"])
        return buf.getvalue()


def demodulate(pwm: PwmBitstream) -> np.ndarray:
    """Recover audio from a whole PWM bitstream as float64 samples at the
    chain's input rate: demodulate_stream over its payload, collected.
    Raises MalformedStream, too, for frames of other than FRAME_BITS."""
    if pwm.frame_bits != FRAME_BITS:
        raise MalformedStream(f"{pwm.frame_bits}-bit PWM frames, the "
                              f"chain's are {FRAME_BITS}")
    return collect(demodulate_stream([pwm.payload], n_bits=len(pwm),
                                     clock_hz=pwm.clock_hz),
                   len(pwm) // PWM_BITS_PER_SAMPLE, np.float64)


def demodulate_stream(blocks: Iterable[np.ndarray], *, n_bits: int,
                      clock_hz: int) -> Iterator[np.ndarray]:
    """Recover audio from a PWM bitstream that arrives a payload block at a
    time, and yield it a block at a time.

    blocks are the PWM1 payload of n_bits bits at clock_hz, packed
    LSB-first into uint8 arrays (as PwmBitstream.payload, or as
    chain.convert_stream yields it) and cut at any byte.  The audio comes
    out at the chain's input rate, clock_hz / PWM_BITS_PER_SAMPLE.  Stage
    1 decimates by a PWM frame (FRAME_BITS), stage 2 by 2^INTERP_STAGES;
    each stage's filter keeps the band that can fold onto 0-20 kHz at
    least 60 dB down.  Stages compensate their own group delay, so the
    output sits on the stream's own time grid: n_bits //
    PWM_BITS_PER_SAMPLE samples in all, which every cut gives bit for bit.
    The first stage reads only the bit transitions (_edge_decimate): a
    leading-edge PWM frame has at most two, against the 795 taps a
    direct-form filter would spend per output at 45.1584 MHz.  The
    payload is taken at most one chain block's 128 KiB (_PAYLOAD_BLOCK)
    at a time, whatever the cut, so each block convert_stream yields is
    one pass of each stage.  Each stage carries a few hundred samples of
    state, so memory grows with neither the stream nor the block.  Raises
    MalformedStream on the first step for a clock_hz that is no positive
    integer multiple of PWM_BITS_PER_SAMPLE or an n_bits that is no
    integer of at least 0 (a bool is none), and for blocks that break the
    PWM1 payload rule, as write_pwm_blocks does (audio_io._payload_blocks).
    """
    _integer("clock_hz", clock_hz, 1, MalformedStream)
    if clock_hz % PWM_BITS_PER_SAMPLE:
        raise MalformedStream(f"bit clock {clock_hz} is not a multiple of "
                              f"{PWM_BITS_PER_SAMPLE}")
    rate = clock_hz // PWM_BITS_PER_SAMPLE
    frame_rate = clock_hz // FRAME_BITS
    payload = _cut(_payload_blocks(blocks, n_bits), _PAYLOAD_BLOCK)
    frames = _edge_decimate(payload, n_bits,
                            _stage_filter(clock_hz, frame_rate, rate),
                            FRAME_BITS)
    for y in _polyphase_decimate(frames, n_bits // FRAME_BITS,
                                 _stage_filter(frame_rate, rate, rate),
                                 1 << INTERP_STAGES):
        np.clip(y, -1.0, 1.0, out=y)
        yield y


def _stage_filter(fs_in: int, fs_out: int, rate: int) -> np.ndarray:
    """Anti-alias lowpass for one decimation stage towards the audio rate.

    Passband reaches the audio band (or what fits below the audio Nyquist);
    the stopband starts where energy would fold back onto it.  The last
    stage (fs_out == rate) also suppresses everything above its own
    Nyquist so the output carries as little out-of-band quantization noise
    as possible.
    """
    protect = min(AUDIO_BAND_HZ, 0.46 * rate)
    stop_edge = fs_out - protect
    if fs_out == rate:
        stop_edge = min(stop_edge, 0.5 * fs_out)
    transition = stop_edge - protect
    num_taps = int(math.ceil(5.5 * fs_in / transition))  # Blackman main lobe
    if num_taps % 2 == 0:
        num_taps += 1
    cutoff = 0.5 * (protect + stop_edge) / fs_in
    return windowed_sinc_lowpass(num_taps, cutoff)


def _edge_decimate(blocks: Iterable[np.ndarray], n_bits: int, h: np.ndarray,
                   m: int) -> Iterator[np.ndarray]:
    """Filter and decimate a packed bitstream as +-1 samples, per step.

    blocks hold n_bits bits packed LSB-first, as in PwmBitstream, cut at
    any byte.  Computes y[n] = sum_k h[k] s(n m + D - k) with s = 2 bits - 1
    inside the stream and 0 outside, D = (len(h)-1)//2, exactly as a
    direct-form filter would.  Write s as a sum of steps p, one wherever
    it changes.  With C the cumulative taps (C[0] = 0, C[L] = H, the tap
    sum),

        y[n] = H s(n m + D - L + 1) + sum_p delta_p C[n m + D - p + 1]

    over the steps p with 1 <= n m + D - p + 1 <= L - 1.  A step reaches
    at most (L - 2) // m + 1 consecutive outputs, so the sum is one
    bincount per output phase over the steps of a block of outputs.  Cost
    follows the transitions (at most two per leading-edge PWM frame)
    instead of L per output.

    Each arriving block is one pass over the outputs the payload now covers
    (demodulate_stream hands it at most 128 KiB).  The pass unpacks the
    window from its first output's settled bit to the last bit it reads,
    zero-padded: positions outside the stream are coded 2, where s is 0,
    so the steps into the stream at 0 and out of it at n_bits are changes
    between neighbouring codes, as transitions are.  The bytes before the
    next pass's window are then dropped.
    """
    n_out = n_bits // m
    taps = len(h)
    delay = (taps - 1) // 2
    cum = np.concatenate(([0.0], np.cumsum(h)))
    sign = np.array([-1.0, 1.0, 0.0])  # s of the codes 0, 1 and 2

    # a step at p from code a to code b adds (s(b) - s(a)) C[r + 1 + j m] to
    # output n0 + j, where n0 is the first output it reaches and r = n0 m +
    # D - p is in [0, m); weighted[j, r + m (3 a + b)] is that term
    phases = (taps - 2) // m + 1
    k = np.arange(phases)[:, None] * m + np.arange(1, m + 1)
    ramp = np.where(k < taps, cum[np.minimum(k, taps)], 0.0)
    weighted = np.hstack([(after - before) * ramp
                          for before in sign for after in sign])

    buf = np.zeros(0, dtype=np.uint8)  # payload bytes base, base + 1, ...
    base = received = done = 0
    for block in blocks:
        buf = np.concatenate((buf, block)) if len(buf) else block
        received += len(block)
        # the outputs whose windows the payload covers
        reach = (8 * received - 1 - delay) // m + 1
        ready = n_out if 8 * received >= n_bits else min(reach, n_out)
        if ready <= done:
            continue
        # the window of codes lo .. hi; only [start, stop] is in the stream
        lo = done * m + delay - taps + 1
        hi = (ready - 1) * m + delay
        start, stop = max(lo, 0), min(hi, n_bits - 1)
        code = np.unpackbits(buf, count=stop + 1 - 8 * base,
                             bitorder="little")[start - 8 * base:]
        if lo < start or stop < hi:
            code = np.pad(code, (start - lo, hi - stop), constant_values=2)

        # the settled bits n m + D - L + 1 have passed all taps: H s(...)
        y = sign[code[:(ready - done) * m:m]] * cum[-1]
        q = np.flatnonzero(code[1:] != code[:-1]) + 1
        p = q + lo
        n0 = (p - delay + m - 1) // m
        col = (n0 * m + delay - p
               + m * (3 * code[q - 1].astype(np.intp) + code[q]))
        idx = n0 - (done - phases)
        acc = np.zeros(ready - done + 2 * phases)
        for j in range(phases):
            acc += np.bincount(idx + j, weights=weighted[j][col],
                               minlength=len(acc))
        y += acc[phases:phases + ready - done]
        done = ready
        # the first byte the next window reads
        keep = max(done * m + delay - taps + 1, 0) >> 3
        buf = buf[keep - base:]
        base = keep
        yield y


def _polyphase_decimate(blocks: Iterable[np.ndarray], n_in: int,
                        h: np.ndarray, m: int) -> Iterator[np.ndarray]:
    """Filter and keep every m-th sample, compensating the filter delay.

    blocks hold the n_in input samples, cut anywhere.  Meant to compute
    y[n] = sum_k h[k] x(n m + D - k) with D = (len(h)-1)/2 and x zero
    outside its range, touching only the samples that survive decimation:
    branch r filters x[D - r::m] with h[r::m].  Known defect: branch r
    starts at x[D - r], so the inputs x[0 .. D - m] are treated as zero as
    well, and outputs 0 .. (2 D - m) // m miss their terms.  At the final
    demodulator stage (D = 473, m = 8) that drops the first 466 input
    samples.

    The input is kept as one window from x[D - m + 1], the first sample a
    branch reads, and branch r is read from it as window[m - 1 - r::m].
    Each block is appended to the window and costs one convolution per
    branch, over the branch's samples after the last len(h[0::m]) it has
    used, and yields every output its branches cover.  Branch starts
    D - r are never negative: demodulate_stream's stage 2 (m = 8, fs_in =
    8 rate) takes 5.5 fs_in / transition taps, over a 0.04 rate transition
    below 43,479 Hz (at least 1100) and one under 0.5 rate above (over
    88), so D >= 44 > m - 1.
    """
    n_out = n_in // m
    delay = (len(h) - 1) // 2
    branch_taps = [h[r::m] for r in range(m)]
    history = len(branch_taps[0])  # the longest branch filter
    start = delay - m + 1  # window[0] is x[start + base m]
    window = np.zeros(0)
    base = received = done = 0
    for x in blocks:
        window = np.concatenate((window, x[max(start - received, 0):]))
        received += len(x)
        # branch 0, window[m - 1::m], has the fewest samples
        ready = n_out if received >= n_in else base + len(window) // m
        if ready <= done:
            continue
        y = np.zeros(ready - done)
        for r, taps in enumerate(branch_taps):
            branch = window[m - 1 - r::m]
            acc = _convolve(branch, taps)[done - base:ready - base]
            y[:len(acc)] += acc
        done = ready
        keep = max(done - history, base)
        window = window[(keep - base) * m:]
        base = keep
        yield y


def blackman_harris(n: int) -> np.ndarray:
    """n-point 4-term Blackman-Harris window (sidelobes near -92 dB);
    ValueError for an n that is no integer of at least 2."""
    _integer("n", n, 2)
    k = np.arange(n)
    a = (0.35875, 0.48829, 0.14128, 0.01168)
    return (a[0]
            - a[1] * np.cos(2.0 * np.pi * k / (n - 1))
            + a[2] * np.cos(4.0 * np.pi * k / (n - 1))
            - a[3] * np.cos(6.0 * np.pi * k / (n - 1)))


def measure(ref: np.ndarray, test: np.ndarray, rate: int) -> SpectrumReport:
    """Score test against ref, both float64 samples at `rate` Hz, after gain
    and delay alignment.

    Both streams are mean-removed (the comparison is AC-coupled), the
    test stream is shifted by the cross-correlation peak refined to a
    fraction of a sample, scaled by the least-squares gain, and the
    residual defines the SNR.  THD and the in-band noise floor come from a
    Blackman-Harris windowed FFT at the detected fundamental.  Raises
    ValueError for a rate that is no integer of at least 1 (a bool is
    none), for ref or test that is no 1-D array of real samples (bool,
    integer or floating), for a sample that is not finite and for samples
    so large that scoring them overflows, and LengthMismatch, a
    ValueError, for streams that overlap by fewer than 256 samples.
    """
    _integer("rate", rate, 1)
    ref, test = _vector("ref", ref, _REAL), _vector("test", test, _REAL)
    n = min(len(ref), len(test))
    if n < 256:
        raise LengthMismatch(f"only {n} overlapping samples")
    if not (np.isfinite(ref).all() and np.isfinite(test).all()):
        raise ValueError("samples must be finite")
    try:
        with np.errstate(over="raise"):
            return _score(ref[:n], test[:n], rate)
    except FloatingPointError as exc:
        raise ValueError(f"samples too large to score: {exc}") from exc


def _score(ref: np.ndarray, test: np.ndarray, rate: int) -> SpectrumReport:
    """measure's report for two checked streams of equal length."""
    r = ref - ref.mean()
    t = test - test.mean()

    p_ref = float(np.dot(r, r))
    if p_ref == 0.0:
        # silent reference: rail/cap case
        return SpectrumReport(fundamental_hz=0.0, snr_db=SNR_CAP_DB,
                              thd_db=THD_FLOOR_DB, inband_noise_power=0.0)

    lag, frac = _estimate_delay(r, t)
    t_aligned, r_aligned = _apply_delay(t, r, lag, frac)

    # n >= 256 and |lag| <= n // 2 leave at least 128 aligned samples, so
    # trim >= 16 and at least 96 samples remain: the spectra below take at
    # least 64 of them and have at least 33 bins
    trim = min(4096, len(r_aligned) // 8)
    r_aligned = r_aligned[trim:-trim]
    t_aligned = t_aligned[trim:-trim]

    denom = float(np.dot(t_aligned, t_aligned))
    gain = float(np.dot(r_aligned, t_aligned)) / denom if denom else 0.0
    err = r_aligned - gain * t_aligned
    p_sig = float(np.dot(r_aligned, r_aligned))
    p_err = float(np.dot(err, err))
    if p_err == 0.0 or p_sig == 0.0:
        snr_db = SNR_CAP_DB
    else:
        snr_db = min(10.0 * math.log10(p_sig / p_err), SNR_CAP_DB)

    # the largest power of two <= the aligned length, capped at 2^20
    window = blackman_harris(1 << min(int(math.log2(len(r_aligned))), 20))
    fund_hz = _fundamental_hz(r_aligned, rate, window)
    thd_db, noise_rel = _harmonic_analysis(t_aligned, rate, fund_hz, window)
    return SpectrumReport(fundamental_hz=fund_hz, snr_db=snr_db,
                          thd_db=thd_db, inband_noise_power=noise_rel)


def _estimate_delay(r: np.ndarray, t: np.ndarray):
    """How many samples t lags r: integer from the cross-correlation peak,
    plus a parabolic sub-sample refinement.

    The search covers lags |k| <= n // 2 of two n-sample streams, and the
    correlation is taken circularly over _fft_size(n + n // 2 + 1) points.
    The linear correlation is zero beyond lags +-(n - 1), and a searched
    lag k shares its circular point only with k -+ size, which lies
    beyond them, so no lag the search reads wraps.
    """
    n = len(r)
    max_lag = n // 2
    size = _fft_size(n + max_lag + 1)
    corr = np.fft.irfft(np.fft.rfft(r, size) * np.conj(np.fft.rfft(t, size)),
                        size)
    # corr[k] = sum_j r[j + k] t[j]; t lagging r by d peaks at k = -d, so
    # lags -max_lag .. max_lag read corr[max_lag], ..., corr[0], corr[-1],
    # ..., corr[-max_lag]
    vals = np.concatenate((corr[max_lag::-1], corr[:-max_lag - 1:-1]))
    peak = int(np.argmax(np.abs(vals)))
    frac = 0.0
    if 0 < peak < len(vals) - 1:
        frac = _vertex(*vals[peak - 1:peak + 2])
    return peak - max_lag, frac


def _fft_size(m: int) -> int:
    """The smallest 2^a 3^b 5^c >= m, for m >= 1: a length numpy's FFT
    splits into fast radix-2, 3, 4 and 5 passes, and one much nearer m
    than the next power of two."""
    best = 1 << (m - 1).bit_length()
    odd = 1
    while odd < best:  # odd runs over 3^b 5^c
        part = odd
        while part < best:
            best = min(best, part << (-(-m // part) - 1).bit_length())
            part *= 3
        odd *= 5
    return best


def _vertex(y0, y1, y2) -> float:
    """Offset from the middle point of the parabola's vertex through three
    equally spaced points, clipped to +-0.5 (0.0 for a flat fit)."""
    denom = y0 - 2.0 * y1 + y2
    if abs(denom) > 1e-30:
        return float(np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5))
    return 0.0


def _apply_delay(t: np.ndarray, r: np.ndarray, lag: int, frac: float):
    """Advance t by (lag + frac) samples and trim both to the overlap."""
    if abs(frac) > 1e-6:
        size = len(t)
        freqs = np.fft.rfftfreq(size)
        t = np.fft.irfft(np.fft.rfft(t) * np.exp(2j * np.pi * freqs * frac),
                         size)
    if lag > 0:
        return t[lag:], r[:len(t) - lag]
    if lag < 0:
        return t[:lag], r[-lag:]
    return t, r


def _magnitude(x: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Magnitude spectrum of the first len(window) samples of x, windowed."""
    return np.abs(np.fft.rfft(x[:len(window)] * window))


def _fundamental_hz(x: np.ndarray, rate: int, window: np.ndarray) -> float:
    """Strongest non-DC bin of the windowed spectrum, parabolically refined."""
    mag = _magnitude(x, window)
    mag[:3] = 0.0
    peak = int(np.argmax(mag))
    if mag[peak] == 0.0:
        return 0.0
    delta = 0.0
    if peak < len(mag) - 1:  # peak >= 3: the bins below it are zeroed
        delta = _vertex(*np.log(np.maximum(mag[peak - 1:peak + 2], 1e-300)))
    return (peak + delta) * rate / len(window)


def _harmonic_analysis(x: np.ndarray, rate: int, fund_hz: float,
                       window: np.ndarray):
    """THD in dB and in-band noise power relative to the fundamental."""
    if fund_hz <= 0.0:
        return THD_FLOOR_DB, 0.0
    power = _magnitude(x, window) ** 2
    bin_hz = rate / len(window)
    fund_bin = int(round(fund_hz / bin_hz))
    w = _HARMONIC_HALF_WIDTH
    p_fund = float(power[max(fund_bin - w, 0):fund_bin + w + 1].sum())
    if p_fund == 0.0:
        return THD_FLOOR_DB, 0.0

    band_limit = min(AUDIO_BAND_HZ, 0.5 * rate)
    tone_bins = {0}  # DC leakage: bins 0 .. w
    p_harm = 0.0
    h = 2
    while h * fund_hz <= band_limit:
        hb = int(round(h * fund_hz / bin_hz))
        p_harm += float(power[max(hb - w, 0):hb + w + 1].sum())
        tone_bins.add(hb)
        h += 1
    thd_db = (10.0 * math.log10(p_harm / p_fund) if p_harm > 0.0
              else THD_FLOOR_DB)
    thd_db = max(thd_db, THD_FLOOR_DB)

    inband = np.arange(len(power))[:int(band_limit / bin_hz) + 1]
    mask = np.ones(len(inband), dtype=bool)
    for b in tone_bins | {fund_bin}:
        lo = max(b - w, 0)
        mask[lo:min(b + w + 1, len(inband))] = False
    noise = float(power[inband[mask]].sum())
    return thd_db, noise / p_fund
