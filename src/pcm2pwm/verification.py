"""Objective quality checks: demodulate PWM back to audio and score it.

The demodulator maps bits onto +-1, lowpasses at 20 kHz with windowed-sinc
decimation stages (stopband rejection about 74 dB) and resamples to the
target rate.  The first stage runs in the edge domain: a +-1 stream is a
sum of steps, so each output is a sum of cumulative-tap values over the
bit transitions in its window, and its cost follows the transitions
rather than the bits, exactly and for any bitstream.  Later stages filter
samples polyphase, one branch per phase.  Scoring aligns the result
against a reference in gain and (fractional) delay, then reports SNR, THD
at the detected fundamental and the 0-20 kHz noise floor.  SNR is capped
at +140 dB so identical streams yield a finite sentinel.

demodulate_stream takes the PWM1 payload a block at a time and yields the
audio a block at a time, each stage carrying a few hundred samples of
state, so `pcm2pwm roundtrip` feeds it chain.convert_stream's blocks and
never holds a whole PWM stream; every cut gives the same samples bit for
bit.  demodulate is its one-block case, collected.  measure works on
whole clips: it holds the reference, the demodulated audio and their FFTs.
Audio is plain float64 arrays: demodulate returns one at target_rate, and
measure takes the one rate its reference and test share.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .audio_io import PwmBitstream
from .chain import _convolve, windowed_sinc_lowpass

SNR_CAP_DB = 140.0
AUDIO_BAND_HZ = 20000.0
THD_FLOOR_DB = -140.0

_HARMONIC_HALF_WIDTH = 8  # FFT bins kept around a tone, covers the window lobe
_EDGE_BLOCK = 4096  # outputs per block of _edge_decimate; bounds its per-block arrays


class MalformedStream(Exception):
    """PWM stream geometry does not fit the requested demodulation."""


class LengthMismatch(Exception):
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


def demodulate(pwm: PwmBitstream, target_rate: int = 44100) -> np.ndarray:
    """Recover audio from a whole PWM bitstream as float64 samples at
    target_rate: demodulate_stream over its payload as one block,
    collected."""
    blocks = demodulate_stream([pwm.payload], n_bits=len(pwm),
                               clock_hz=pwm.clock_hz, target_rate=target_rate)
    return np.concatenate([np.zeros(0), *blocks])


def demodulate_stream(blocks: Iterable[np.ndarray], *, n_bits: int,
                      clock_hz: int, target_rate: int) -> Iterator[np.ndarray]:
    """Recover audio from a PWM bitstream that arrives a payload block at a
    time, and yield it a block at a time.

    blocks are the PWM1 payload of n_bits bits at clock_hz, packed
    LSB-first into uint8 arrays (as PwmBitstream.payload, or as
    chain.convert_stream yields it) and cut at any byte.  The bit clock
    must be an integer multiple of target_rate.  Large ratios are
    decimated in two stages; each stage's filter keeps the band that can
    fold onto 0-20 kHz at least 60 dB down.  Stages compensate their own
    group delay, so the output sits on the stream's own time grid:
    n_bits // ratio samples in all, which every cut gives bit for bit.
    The first stage reads only the bit transitions (_edge_decimate): a
    leading-edge PWM frame has at most two, against the 795 taps a
    direct-form filter would spend per output at 45.1584 MHz.  Each stage
    carries a few hundred samples of state from block to block, so memory
    does not grow with the stream.  Raises MalformedStream, on the first
    step, for a rate the stages cannot reach, and at the end for a payload
    that is not the ceil(n_bits / 8) bytes n_bits need.
    """
    if target_rate <= 0:
        raise MalformedStream("target rate must be positive")
    if clock_hz % target_rate != 0:
        raise MalformedStream(
            f"bit clock {clock_hz} is not a multiple of {target_rate}")
    ratio = clock_hz // target_rate
    blocks = _payload(blocks, n_bits)

    if ratio == 1:
        done = 0
        for block in blocks:
            bits = np.unpackbits(block, bitorder="little")
            bits = bits[:max(n_bits - done, 0)]  # not the pad bits
            done += len(bits)
            yield bits.astype(np.float64) * 2.0 - 1.0
        return

    stages = [ratio // 8, 8] if ratio % 8 == 0 and ratio > 8 else [ratio]
    rate, n_in = clock_hz, n_bits
    for i, m in enumerate(stages):
        out_rate = rate // m
        h = _stage_filter(rate, out_rate, target_rate,
                          final=(out_rate == target_rate))
        if i == 0:
            blocks = _edge_decimate(blocks, n_in, h, m)
        else:
            blocks = _polyphase_decimate(blocks, n_in, h, m)
        rate, n_in = out_rate, n_in // m
    for y in blocks:
        np.clip(y, -1.0, 1.0, out=y)
        yield y


def _payload(blocks: Iterable[np.ndarray], n_bits: int
             ) -> Iterator[np.ndarray]:
    """The payload blocks, then MalformedStream if they did not hold the
    bytes n_bits need."""
    size = 0
    for block in blocks:
        size += len(block)
        yield block
    if size != (n_bits + 7) // 8:
        raise MalformedStream(f"{n_bits} bits need {(n_bits + 7) // 8} "
                              f"payload bytes, got {size}")


def _stage_filter(fs_in: int, fs_out: int, target_rate: int,
                  final: bool = False) -> np.ndarray:
    """Anti-alias lowpass for one decimation stage.

    Passband reaches the audio band (or what fits below the final Nyquist);
    the stopband starts where energy would fold back onto it.  The last
    stage also suppresses everything above its own Nyquist so the output
    carries as little out-of-band quantization noise as possible.
    """
    protect = min(AUDIO_BAND_HZ, 0.46 * target_rate)
    stop_edge = fs_out - protect
    if final:
        stop_edge = min(stop_edge, 0.5 * fs_out)
    if stop_edge <= protect:
        raise MalformedStream(f"cannot protect {protect:.0f} Hz when "
                              f"decimating to {fs_out} Hz")
    transition = stop_edge - protect
    num_taps = int(math.ceil(5.5 * fs_in / transition))  # Blackman main lobe
    m = fs_in // fs_out
    num_taps = max(num_taps, 2 * m + 1)
    if num_taps % 2 == 0:
        num_taps += 1
    cutoff = 0.5 * (protect + stop_edge) / fs_in
    return windowed_sinc_lowpass(num_taps, cutoff)


def _edge_decimate(blocks: Iterable[np.ndarray], n_bits: int, h: np.ndarray,
                   m: int) -> Iterator[np.ndarray]:
    """Filter and decimate a packed bitstream as +-1 samples, per transition.

    blocks hold n_bits bits packed LSB-first, as in PwmBitstream, cut at
    any byte.  Computes y[n] = sum_k h[k] s(n m + D - k) with s = 2 bits - 1
    inside the stream and 0 outside, D = (len(h)-1)//2, exactly as a
    direct-form filter would.  Write s as a sum of steps: one of height +-2
    at each transition p (bits[p] != bits[p-1]), one into the stream at 0
    and one out of it at n_bits.  With C the cumulative taps (C[0] = 0,
    C[L] = H, the tap sum),

        y[n] = H s(n m + D - L + 1) + sum_p delta_p C[n m + D - p + 1]

    over the steps p with 1 <= n m + D - p + 1 <= L - 1.  A step reaches
    at most (L - 2) // m + 1 consecutive outputs, so the sum is one
    bincount per output phase over the transitions of a block of outputs.
    Cost follows the transitions (at most two per leading-edge PWM frame)
    instead of L per output.  Only the bit window of one block is unpacked
    at a time; the settled bits s(n m + D - L + 1) are read from the
    payload by byte index and shift.

    Each output is computed once the payload reaches D bits past it, in
    blocks of at most _EDGE_BLOCK outputs; the bytes no later window reads
    (about L bits before the next output) are dropped.
    """
    n_out = n_bits // m
    taps = len(h)
    delay = (taps - 1) // 2
    cum = np.concatenate(([0.0], np.cumsum(h)))

    # a transition at p adds delta C[r + 1 + j m] to output n0 + j, where n0
    # is the first output it reaches and r = n0 m + D - p is in [0, m);
    # signed[j, r + m b] is that term for the bit b after the transition
    phases = (taps - 2) // m + 1
    a = np.arange(phases)[:, None] * m + np.arange(1, m + 1)
    ramp = np.where(a < taps, cum[np.minimum(a, taps)], 0.0)
    signed = np.concatenate((-2.0 * ramp, 2.0 * ramp), axis=1)
    first = -((taps - 1 - delay) // -m)  # first n with a non-negative index

    buf = np.zeros(0, dtype=np.uint8)  # payload bytes base, base + 1, ...
    pending = []  # blocks that arrived after buf
    base = received = done = 0
    lead = 0.0  # the step into the stream: s(0)
    for block in blocks:
        if not received and len(block):
            lead = 2.0 * _bit(block, 0) - 1.0
        pending.append(block)
        received += len(block)
        # the outputs whose windows the payload covers
        reach = (8 * received - 1 - delay) // m + 1
        ready = n_out if 8 * received >= n_bits else min(reach, n_out)
        if ready <= done:
            continue
        parts = [buf, *pending] if len(buf) else pending
        buf = np.concatenate(parts) if len(parts) > 1 else parts[0]
        pending = []
        y = np.zeros(ready - done)
        for start in range(done, ready, _EDGE_BLOCK):
            stop = min(start + _EDGE_BLOCK, ready)
            # the steps into the stream at 0 and out of it at n_bits
            for p in (0, n_bits):
                n = np.arange(max(-((delay - p) // m), start),
                              min((p - delay + taps - 2) // m + 1, stop))
                if len(n):
                    delta = lead if p == 0 else (
                        1.0 - 2.0 * _bit(buf, n_bits - 1 - 8 * base))
                    y[n - done] += delta * cum[n * m + delay - p + 1]

            # steps at or before n m + D - L + 1 have passed all taps: H s(...)
            head = max(start, first)
            i = np.arange(head, stop) * m + delay - taps + 1 - 8 * base
            y[head - done:stop - done] += (_bit(buf, i) * (2.0 * cum[-1])
                                           - cum[-1])

            lo = max((start - phases) * m + delay + 1, 1)
            hi = min((stop - 1) * m + delay, n_bits - 1)
            if lo > hi:
                continue
            skip = (lo - 1) & 7  # bits lo - 1 .. hi, unpacked from whole bytes
            lo_byte = ((lo - 1) >> 3) - base
            seg = np.unpackbits(buf[lo_byte:(hi >> 3) + 1 - base],
                                bitorder="little")[skip:skip + hi - lo + 2]
            q = np.flatnonzero(seg[1:] != seg[:-1])
            p = q + lo
            n0 = (p - delay + m - 1) // m
            col = n0 * m + delay - p + m * seg[q + 1].astype(np.intp)
            idx = n0 - (start - phases)
            size = stop - start + 2 * phases
            acc = np.zeros(size)
            for j in range(phases):
                acc += np.bincount(idx + j, weights=signed[j][col],
                                   minlength=size)
            y[start - done:stop - done] += acc[phases:phases + stop - start]
        done = ready
        # the first byte the next output reads
        keep = max((done - phases) * m + delay, 0) >> 3
        buf = buf[keep - base:]
        base = keep
        yield y


def _bit(payload: np.ndarray, i):
    """Bit i (an index or an index array) of an LSB-first packed payload."""
    return (payload[i >> 3] >> (i & 7)) & 1


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

    Each block costs one convolution per branch, over the branch's new
    samples after the last len(h[0::m]) it has seen, and yields every
    output its branches cover.
    """
    n_out = n_in // m
    delay = (len(h) - 1) // 2
    if delay < m - 1:  # keep every branch's start index non-negative
        raise ValueError("filter too short for this decimation factor")
    branch_taps = [h[r::m] for r in range(m)]
    history = len(branch_taps[0])  # the longest branch filter
    xs = [np.zeros(0) for _ in range(m)]  # branch samples base, base + 1, ...
    base = received = done = 0
    for x in blocks:
        for r in range(m):  # x[D - r + j m] is sample j of branch r
            k = delay - r - received
            xs[r] = np.concatenate((xs[r], x[max(k, k % m)::m]))
        received += len(x)
        # branch 0 has the fewest samples
        ready = n_out if received >= n_in else base + len(xs[0])
        if ready <= done:
            continue
        y = np.zeros(ready - done)
        for branch, taps in zip(xs, branch_taps):
            acc = _convolve(branch, taps)[done - base:ready - base]
            y[:len(acc)] += acc
        done = ready
        keep = max(done - history, base)
        xs = [branch[keep - base:] for branch in xs]
        base = keep
        yield y


def blackman_harris(n: int) -> np.ndarray:
    """4-term Blackman-Harris window (sidelobes near -92 dB)."""
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
    Blackman-Harris windowed FFT at the detected fundamental.
    """
    n = min(len(ref), len(test))
    if n < 256:
        raise LengthMismatch(f"only {n} overlapping samples")

    r = ref[:n] - ref[:n].mean()
    t = test[:n] - test[:n].mean()

    p_ref = float(np.dot(r, r))
    if p_ref == 0.0:
        # silent reference: rail/cap case
        return SpectrumReport(fundamental_hz=0.0, snr_db=SNR_CAP_DB,
                              thd_db=THD_FLOOR_DB, inband_noise_power=0.0)

    lag, frac = _estimate_delay(r, t)
    t_aligned, r_aligned = _apply_delay(t, r, lag, frac)

    trim = min(4096, len(r_aligned) // 8)
    if trim:
        r_aligned = r_aligned[trim:-trim]
        t_aligned = t_aligned[trim:-trim]
    if len(r_aligned) < 64:
        raise LengthMismatch("too little overlap after alignment")

    denom = float(np.dot(t_aligned, t_aligned))
    gain = float(np.dot(r_aligned, t_aligned)) / denom if denom else 0.0
    err = r_aligned - gain * t_aligned
    p_sig = float(np.dot(r_aligned, r_aligned))
    p_err = float(np.dot(err, err))
    if p_err == 0.0 or p_sig == 0.0:
        snr_db = SNR_CAP_DB
    else:
        snr_db = min(10.0 * math.log10(p_sig / p_err), SNR_CAP_DB)

    fund_hz = _fundamental_hz(r_aligned, rate)
    thd_db, noise_rel = _harmonic_analysis(t_aligned, rate, fund_hz)
    return SpectrumReport(fundamental_hz=fund_hz, snr_db=snr_db,
                          thd_db=thd_db, inband_noise_power=noise_rel)


def _estimate_delay(r: np.ndarray, t: np.ndarray):
    """How many samples t lags r: integer from the cross-correlation peak,
    plus a parabolic sub-sample refinement."""
    n = len(r)
    size = 1 << int(np.ceil(np.log2(2 * n)))
    corr = np.fft.irfft(np.fft.rfft(r, size) * np.conj(np.fft.rfft(t, size)),
                        size)
    # corr[k] = sum_j r[j + k] t[j]; t lagging r by d peaks at k = -d
    max_lag = n // 2
    ds = np.arange(-max_lag, max_lag + 1)
    vals = corr[(-ds) % size]
    peak = int(np.argmax(np.abs(vals)))
    lag = int(ds[peak])
    frac = 0.0
    if 0 < peak < len(vals) - 1:
        y0, y1, y2 = vals[peak - 1], vals[peak], vals[peak + 1]
        denom = y0 - 2.0 * y1 + y2
        if abs(denom) > 1e-30:
            frac = float(np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5))
    return lag, frac


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


def _fundamental_hz(x: np.ndarray, rate: int) -> float:
    """Strongest non-DC bin of the windowed spectrum, parabolically refined."""
    size = _fft_size(len(x))
    seg = x[:size] * blackman_harris(size)
    mag = np.abs(np.fft.rfft(seg))
    if len(mag) < 8:
        return 0.0
    mag[:3] = 0.0
    peak = int(np.argmax(mag))
    if mag[peak] == 0.0:
        return 0.0
    delta = 0.0
    if 0 < peak < len(mag) - 1:
        with np.errstate(divide="ignore"):
            y0, y1, y2 = np.log(np.maximum(mag[peak - 1:peak + 2], 1e-300))
        denom = y0 - 2.0 * y1 + y2
        if abs(denom) > 1e-30:
            delta = float(np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5))
    return (peak + delta) * rate / size


def _harmonic_analysis(x: np.ndarray, rate: int, fund_hz: float):
    """THD in dB and in-band noise power relative to the fundamental."""
    size = _fft_size(len(x))
    seg = x[:size] * blackman_harris(size)
    power = np.abs(np.fft.rfft(seg)) ** 2
    if fund_hz <= 0.0:
        return THD_FLOOR_DB, 0.0
    bin_hz = rate / size
    fund_bin = int(round(fund_hz / bin_hz))
    w = _HARMONIC_HALF_WIDTH
    p_fund = float(power[max(fund_bin - w, 0):fund_bin + w + 1].sum())
    if p_fund == 0.0:
        return THD_FLOOR_DB, 0.0

    band_limit = min(AUDIO_BAND_HZ, 0.5 * rate)
    tone_bins = {0}
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
    mask[:3] = False  # DC leakage
    for b in tone_bins | {fund_bin}:
        lo = max(b - w, 0)
        mask[lo:min(b + w + 1, len(inband))] = False
    noise = float(power[inband[mask]].sum())
    return thd_db, noise / p_fund


def _fft_size(n: int) -> int:
    """Largest power of two <= n, capped at 2^20 (LengthMismatch below 16)."""
    if n < 16:
        raise LengthMismatch("stream too short for spectral analysis")
    return 1 << min(int(math.log2(n)), 20)
