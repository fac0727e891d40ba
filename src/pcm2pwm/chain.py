"""Six-behavior PCM-to-PWM conversion chain plus the PWM waveform generator.

The chain runs strictly sequentially:

    S0    conditioning: scale 16-bit integers into [-1, +1)
    S1    x2 interpolation  (44.1 kHz  -> 88.2 kHz)
    S2    x2 interpolation  (88.2 kHz  -> 176.4 kHz)
    S3    x2 interpolation  (176.4 kHz -> 352.8 kHz)
    LINE  pulse-edge linearization (pseudo natural sampling)
    MOLD  second-order noise-shaped quantization to 7 bits

followed by the waveform generator, which expands each 7-bit code into a
128-bit leading-edge pulse frame.  The design is fixed: INTERP_STAGES x2
stages share one FIR_TAPS-tap kernel and MOLD quantizes to QUANTIZER_BITS.
Every rate follows from the input stream; for 44.1 kHz input the bit clock
is 352800 * 128 = 45,158,400 Hz, where doing the same job without the chain
would take 2^16 * 44100 = 2,890,137,600 Hz of pulse resolution.

All arithmetic is double precision and stages are pure functions.  The
operations each stage is modelled to perform are profiler.op_counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import PcmStream, PwmBitstream

BEHAVIORS = ("S0", "S1", "S2", "S3", "LINE", "MOLD")

PCM_FULL_SCALE = 32768  # divisor for S0; 16-bit two's-complement range

INTERP_STAGES = 3  # x2 interpolators S1-S3
FIR_TAPS = 63  # length of the kernel S1-S3 share
QUANTIZER_BITS = 7  # MOLD output codes; one PWM frame is 2^7 bits


@dataclass
class SampleStream:
    """Real-valued samples in [-1, +1] at a fixed rate."""

    samples: np.ndarray  # float64
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)

    def __len__(self):
        return len(self.samples)


@dataclass
class QuantizedStream:
    """Integer codes in [0, 2^bits - 1] at a fixed rate."""

    codes: np.ndarray  # int
    bits: int
    sample_rate: int

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.int64)
        if len(self.codes) and (self.codes.min() < 0
                                or self.codes.max() >= 2 ** self.bits):
            raise ValueError(f"codes out of range for {self.bits} bits")

    def __len__(self):
        return len(self.codes)


def _blackman_sinc(num_taps: int, cutoff: float) -> np.ndarray:
    """Blackman-windowed sinc centred on the middle tap, the one core both
    filter designers scale."""
    if num_taps % 2 == 0 or num_taps < 3:
        raise ValueError("num_taps must be odd and >= 3")
    if not 0.0 < cutoff < 0.5:
        raise ValueError("cutoff must be in (0, 0.5)")
    m = np.arange(num_taps) - (num_taps - 1) // 2
    return 2.0 * cutoff * np.sinc(2.0 * cutoff * m) * np.blackman(num_taps)


def design_interp_kernel(num_taps: int = FIR_TAPS) -> np.ndarray:
    """Read-only taps of a x2 interpolator: a Blackman-windowed sinc with
    its cutoff at a quarter of the stage output rate.

    The kernel is scaled so each polyphase branch sums to exactly 1, which
    makes the x2 stage DC-exact (total tap sum 2.0).
    """
    taps = 2.0 * _blackman_sinc(num_taps, 0.25)
    # exact unit DC gain per polyphase branch
    for phase in (0, 1):
        s = taps[phase::2].sum()
        if s != 0.0:
            taps[phase::2] /= s
    taps.flags.writeable = False
    return taps


def windowed_sinc_lowpass(num_taps: int, cutoff: float) -> np.ndarray:
    """Blackman-windowed sinc lowpass, unit DC gain.

    cutoff is the half-amplitude frequency as a fraction of the sampling
    rate, 0 < cutoff < 0.5.  Stopband rejection is about 74 dB.
    """
    taps = _blackman_sinc(num_taps, cutoff)
    return taps / taps.sum()


# MOLD converts this many samples to Python floats at a time.  One tolist()
# of a whole 4.3 s stream makes 1.5 M float objects; the allocator arenas
# they free stay resident once any long-lived object lands in one, so a
# process that keeps a little state per conversion grew about 1 MB a call.
_MOLD_BLOCK = 8192


def s0_condition(pcm: PcmStream) -> SampleStream:
    """S0: map 16-bit integers onto [-1, +1); the rate is unchanged."""
    samples = pcm.samples.astype(np.float64) / PCM_FULL_SCALE
    return SampleStream(samples=samples, sample_rate=pcm.sample_rate)


def upsample2(stream: SampleStream, kernel: np.ndarray, *,
              behavior: str = "S1") -> SampleStream:
    """One x2 interpolation stage: zero-stuff, filter, saturate.

    Output is the causal head of the full convolution, so the stage delays
    the signal by (taps - 1) / 2 output samples.  `behavior` (S1, S2 or S3)
    does not change the result; its only use is to let the benchmark
    tracer, perfbench/tracing.py, tell the three calls apart.
    """
    if len(stream) == 0:
        raise ValueError("cannot upsample an empty stream")
    stuffed = np.zeros(2 * len(stream))
    stuffed[::2] = stream.samples
    out = np.convolve(stuffed, kernel)[:len(stuffed)]
    np.clip(out, -1.0, 1.0, out=out)
    return SampleStream(samples=out, sample_rate=2 * stream.sample_rate)


def linearize(stream: SampleStream) -> SampleStream:
    """LINE: replace each sample with the signal value at its pulse crossing.

    Uniformly sampled PWM fixes the pulse width from the sample at the frame
    start, which distorts the demodulated audio.  Natural sampling would set
    the width where the signal crosses the frame's ramp.  This stage
    approximates that crossing with a quadratic fit through neighbours
    (k-1, k, k+1): with u = (x + 1) / 2 mapped onto the ramp's unit scale,
    solve u(t) = t on the frame, 0 <= t <= 1, and emit 2 t - 1.  The first
    and last samples have no complete neighbourhood and pass through
    unchanged.
    """
    x = stream.samples
    if len(x) < 3:
        return SampleStream(samples=x.copy(), sample_rate=stream.sample_rate)

    u = 0.5 * (x + 1.0)
    c0 = u[1:-1]
    c1 = 0.5 * (u[2:] - u[:-2])
    c2 = 0.5 * (u[2:] - 2.0 * u[1:-1] + u[:-2])

    # u(t) = c0 + c1 t + c2 t^2;  u(t) = t  =>  c2 t^2 + (c1 - 1) t + c0 = 0.
    # In-band slopes keep c1 < 1, so -b > 0 and this root is the physical
    # crossing, continuous with the linear case as c2 -> 0.
    b = c1 - 1.0
    disc = b * b - 4.0 * c2 * c0
    denom = -b + np.sqrt(np.maximum(disc, 0.0))
    bad = (disc < 0.0) | (denom <= 1e-12)  # no usable crossing: keep the sample
    t = 2.0 * c0 / np.where(bad, 1.0, denom)
    t = np.where(bad, c0, t)
    np.clip(t, 0.0, 1.0, out=t)

    out = np.empty_like(x)
    out[0] = x[0]
    out[-1] = x[-1]
    out[1:-1] = 2.0 * t - 1.0
    return SampleStream(samples=out, sample_rate=stream.sample_rate)


def noise_shape(stream: SampleStream) -> QuantizedStream:
    """MOLD: error-feedback quantizer with noise transfer (1 - z^-1)^2.

    Per sample: v = x + 2 e[k-1] - e[k-2], v is clamped to [-1, 1], rounded
    half-up onto the 2^QUANTIZER_BITS - 1 grid, and the pre-clamp error
    v - dequantized(code) is fed back.  State starts at zero.
    """
    n_levels = 2 ** QUANTIZER_BITS - 1
    half = n_levels / 2.0
    inv_half = 1.0 / half

    codes = []
    append = codes.append
    e1 = e2 = 0.0
    x = stream.samples
    for start in range(0, len(x), _MOLD_BLOCK):
        for xv in x[start:start + _MOLD_BLOCK].tolist():
            v = xv + 2.0 * e1 - e2
            c = 1.0 if v > 1.0 else (-1.0 if v < -1.0 else v)
            code = int((c + 1.0) * half + 0.5)  # round half-up, argument >= 0
            if code > n_levels:
                code = n_levels
            append(code)
            e2 = e1
            e1 = v - (code * inv_half - 1.0)
    return QuantizedStream(codes=np.array(codes, dtype=np.int64),
                           bits=QUANTIZER_BITS,
                           sample_rate=stream.sample_rate)


def generate_pwm(q: QuantizedStream) -> PwmBitstream:
    """Expand codes into leading-edge pulse frames, packed as PWM1 payload.

    A frame for code c is c ones followed by (2^bits - c) zeros: the
    hardware equivalent compares a free-running counter against a code
    register.  The bit clock is sample_rate * 2^bits.  Each code is one
    lookup into a table of the 2^bits + 1 possible frames, each 2^bits / 8
    bytes packed LSB-first (129 x 16 bytes for 7-bit codes).  Raises
    ValueError for bits < 3, whose frames do not fill whole bytes.
    """
    if q.bits < 3:
        raise ValueError(f"{2 ** q.bits}-bit frames do not fill whole bytes; "
                         f"generate_pwm needs bits >= 3")
    frame_bits = 2 ** q.bits
    ramp = np.arange(frame_bits)
    table = np.packbits(ramp < np.arange(frame_bits + 1)[:, np.newaxis],
                        axis=1, bitorder="little")
    return PwmBitstream(payload=table[q.codes].reshape(-1),
                        n_bits=len(q) * frame_bits,
                        clock_hz=q.sample_rate * frame_bits,
                        frame_bits=frame_bits)


def convert(pcm: PcmStream) -> PwmBitstream:
    """Full sequential chain S0 -> S1 -> S2 -> S3 -> LINE -> MOLD -> PWM."""
    kernel = design_interp_kernel()
    stream = s0_condition(pcm)
    for i in range(INTERP_STAGES):
        stream = upsample2(stream, kernel, behavior=f"S{i + 1}")
    stream = linearize(stream)
    q = noise_shape(stream)
    return generate_pwm(q)
