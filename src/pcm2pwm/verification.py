"""Objective quality checks: demodulate PWM back to audio and score it.

The demodulator inverts chain's one geometry, so the bit clock gives the
rate: the audio comes out at the chain's input rate, clock_hz / 1024
(PWM_BITS_PER_SAMPLE).  It maps bits onto +-1 and lowpasses at 20 kHz in
two windowed-sinc decimation stages (stopband rejection about 74 dB), by a
PWM frame and then by the interpolators' product of rates.  The first stage
sums one row of taps times bits per frame its window meets: the chain's
128 frames take theirs from a table, one lookup a frame, and any other
frame's is computed from its bits, exactly for any bitstream of whole
frames, the only kind it takes.  The second filters samples polyphase,
one branch per phase.
Scoring aligns the result against a reference in gain and (fractional)
delay, then reports SNR, THD at the detected fundamental and the 0-20 kHz
noise floor.  SNR is capped at +140 dB so identical streams yield a finite
sentinel.

demodulate_stream cuts the PWM1 payload once, at its entry, into blocks of
at most one chain block's payload (audio_io._cut), however it arrives, and
yields the audio a block at a time, each stage carrying a few hundred
samples of state, so `pcm2pwm roundtrip` feeds it chain.convert_stream's
blocks and never holds a whole PWM stream; every cut gives the same
samples bit for bit.  Each stage ends where its input ends and counts
nothing: the header's n_bits is read only by the PWM1 rules that check
it, audio_io._check_fields and audio_io._payload_blocks.
demodulate is its one-block case, collected.  measure holds whole clips:
the reference, the demodulated audio and their FFTs.  Audio is plain
float64 arrays: demodulate returns one at the chain's input rate, and
measure takes the rate ref and test share.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .audio_io import (_BLOCK, _REAL, MalformedStream, PwmBitstream,
                       _check_fields, _cut, _integer, _payload_blocks,
                       _vector, collect)
from .chain import (_FRAMES, FRAME_BITS, PWM_BITS_PER_SAMPLE, _convolve,
                    windowed_sinc_lowpass)

SNR_CAP_DB = 140.0
AUDIO_BAND_HZ = 20000.0
THD_FLOOR_DB = -140.0

_HARMONIC_HALF_WIDTH = 8  # FFT bins kept around a tone, covers the window lobe
# payload bytes demodulated at a time: what chain.convert_stream makes of
# one block of _BLOCK input samples, 128 KiB
_PAYLOAD_BLOCK = _BLOCK * PWM_BITS_PER_SAMPLE // 8
# the low and high little-endian 64-bit words of the chain's frames
_FRAME_LOW, _FRAME_HIGH = _FRAMES.view("<u8").T.copy()


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

    blocks are the PWM1 payload of n_bits bits at clock_hz, whole frames
    of FRAME_BITS bits packed LSB-first into uint8 arrays (as
    PwmBitstream.payload, or as chain.convert_stream yields it) and cut
    at any byte.  The audio comes out at the chain's input rate, clock_hz
    / PWM_BITS_PER_SAMPLE.  Stage 1 decimates by a PWM frame
    (FRAME_BITS), stage 2 by the chain's product of rates
    (PWM_BITS_PER_SAMPLE // FRAME_BITS); each stage's filter keeps the
    band that can fold onto 0-20 kHz at least 60 dB down.  Stages
    compensate their own group delay, so the output sits on the stream's
    own time grid: n_bits // PWM_BITS_PER_SAMPLE samples in all, which
    every cut gives bit for bit.
    The first stage (_frame_decimate) takes each frame's row from a
    table of the chain's 128 frames, one lookup a frame, against the 795
    taps a direct-form filter would spend per output at 45.1584 MHz.  The
    payload is taken at most one chain block's 128 KiB (_PAYLOAD_BLOCK)
    at a time, whatever the cut, so each block convert_stream yields is
    one pass of each stage.  Each stage carries a few hundred samples of
    state, so memory grows with neither the stream nor the block.  Raises
    MalformedStream on the first step, before a payload byte is read, for
    fields that break the PWM1 header rule PwmBitstream and
    write_pwm_blocks share (audio_io._check_fields: an n_bits that is no
    integer of at least 0, a bool being none, or no whole number of
    FRAME_BITS-bit frames) and for a clock_hz that is no positive integer
    multiple of PWM_BITS_PER_SAMPLE; and for blocks that break the PWM1
    payload rule, as write_pwm_blocks does (audio_io._payload_blocks).
    """
    _integer("clock_hz", clock_hz, 1, MalformedStream)
    _check_fields(n_bits, clock_hz, FRAME_BITS)
    if clock_hz % PWM_BITS_PER_SAMPLE:
        raise MalformedStream(f"bit clock {clock_hz} is not a multiple of "
                              f"{PWM_BITS_PER_SAMPLE}")
    rate = clock_hz // PWM_BITS_PER_SAMPLE
    frame_rate = clock_hz // FRAME_BITS
    payload = _cut(_payload_blocks(blocks, n_bits), _PAYLOAD_BLOCK)
    frames = _frame_decimate(payload,
                             _stage_filter(clock_hz, frame_rate, rate))
    for y in _polyphase_decimate(frames, _stage_filter(frame_rate, rate, rate),
                                 PWM_BITS_PER_SAMPLE // FRAME_BITS):
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


def _frame_decimate(blocks: Iterable[np.ndarray],
                    h: np.ndarray) -> Iterator[np.ndarray]:
    """Filter and decimate a packed bitstream as +-1 samples by one PWM
    frame, m = FRAME_BITS bits.

    blocks hold whole frames, packed LSB-first as in PwmBitstream, cut at
    any byte; the stream ends where blocks end.  Computes y[n] = sum_k
    h[k] s(n m + D - k) with s = 2 bits - 1 inside the stream and 0
    outside, D = (len(h)-1)//2, exactly as a direct-form filter would,
    one output per frame.  Output n's window meets frames n + j, j = lo ..
    hi, at the taps G[j, i] = h[D - j m - i] (0 off h), so with frame f's
    row R[f] = G s_f, y[n] = sum_j R[n + j, j], and R = 0 outside the
    stream.  A chain frame's R (chain._FRAMES) is one lookup in their
    table; any other's is computed from its bytes as the table's are.

    Each block is one pass over the outputs its frames' rows now cover
    (demodulate_stream hands it at most 128 KiB), carrying the rows of
    the last hi - lo frames and the bytes of an unfinished frame; after
    the last block, hi zero rows cover the last hi outputs.  A frame's
    row depends only on its bytes, and the sum over j runs in one order,
    so every cut gives the same bits.
    """
    m, size = FRAME_BITS, FRAME_BITS // 8  # a frame's bits and bytes
    delay = (len(h) - 1) // 2
    lo, hi = (delay - len(h) + 1) // m, delay // m
    k = delay - m * np.arange(lo, hi + 1)[:, None] - np.arange(m)
    g = np.where((0 <= k) & (k < len(h)), h[k % len(h)], 0.0)
    # byte_rows[q, v]: byte q's share of G s when it holds v, bits as +-1
    signs = 2.0 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                                axis=1, bitorder="little") - 1.0
    byte_rows = signs @ g.reshape(len(g), size, 8).transpose(1, 2, 0)

    def frame_rows(frames):
        """R = G s of each frame, a row of bytes, summed a byte at a time
        in one order, so a frame gets the same row in any batch."""
        return sum(byte_rows[q][frames[:, q]] for q in range(size))
    table = frame_rows(_FRAMES)
    first = _FRAME_LOW[:m // 2 + 1]  # 2^c - 1 for c = 0 .. 64

    def block_rows():
        """The rows of each block's whole frames, the bytes of an
        unfinished frame carried to the next block, and after the last
        block the rows of the hi frames after the stream, which are 0."""
        tail = np.zeros(0, dtype=np.uint8)
        for block in blocks:
            data = np.concatenate((tail, block))
            whole = len(data) - len(data) % size
            frames, tail = data[:whole].reshape(-1, size), data[whole:]
            # code c's frame has the words (2^c - 1, 0) up to c = 64 and
            # (2^64 - 1, 2^(c-64) - 1) above: each word's place in first,
            # summed, is the frame's code if that code's words confirm it
            low, high = frames.view("<u8").T
            code = np.minimum(np.searchsorted(first, low)
                              + np.searchsorted(first, high), m - 1)
            new = np.take(table, code, axis=0)
            other = np.flatnonzero((low != _FRAME_LOW.take(code))
                                   | (high != _FRAME_HIGH.take(code)))
            new[other] = frame_rows(frames[other])
            yield new
        yield np.zeros((hi, len(g)))

    rows = np.zeros((-lo, len(g)))  # frames lo .. -1, before the stream
    for new in block_rows():
        rows = np.concatenate((rows, new))
        ready = len(rows) - len(g) + 1  # the outputs the rows cover
        if ready <= 0:
            continue
        yield sum(rows[j:j + ready, j] for j in range(len(g)))
        rows = rows[ready:]


def _polyphase_decimate(blocks: Iterable[np.ndarray], h: np.ndarray,
                        m: int) -> Iterator[np.ndarray]:
    """Filter and keep every m-th sample, compensating the filter delay.

    blocks hold the input samples x, cut anywhere; the input ends where
    blocks end, and N samples give N // m outputs.  Meant to compute
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
    used, and yields every output its branches cover; after the last
    block, one more such pass yields the outputs up to N // m.  Branch
    starts D - r are never negative: demodulate_stream's stage 2 (m = 8,
    fs_in = 8 rate) takes 5.5 fs_in / transition taps, over a 0.04 rate
    transition below 43,479 Hz (at least 1100) and one under 0.5 rate
    above (over 88), so D >= 44 > m - 1.
    """
    delay = (len(h) - 1) // 2
    branch_taps = [h[r::m] for r in range(m)]
    history = len(branch_taps[0])  # the longest branch filter
    start = delay - m + 1  # window[0] is x[start + base m]
    window = np.zeros(0)
    base = received = done = 0
    for x in itertools.chain(blocks, [end := np.zeros(0)]):
        window = np.concatenate((window, x[max(start - received, 0):]))
        received += len(x)
        # branch 0, window[m - 1::m], has the fewest samples; at end, the
        # empty block after the last, x is 0 from then on, and the
        # branches cover every output on the input's grid
        ready = received // m if x is end else base + len(window) // m
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

    # whole-clip sums of products by numpy's own loops, which raise on
    # overflow as np.dot does: np.dot calls the BLAS, whose thread pool
    # takes milliseconds to wake for one such sum
    p_ref = float((r * r).sum())
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

    denom = float((t_aligned * t_aligned).sum())
    gain = float((r_aligned * t_aligned).sum()) / denom if denom else 0.0
    err = r_aligned - gain * t_aligned
    p_sig = float((r_aligned * r_aligned).sum())
    p_err = float((err * err).sum())
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
