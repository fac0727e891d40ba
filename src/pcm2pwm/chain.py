"""Six-behavior PCM-to-PWM conversion chain plus the PWM waveform generator.

STAGES declares the chain once; its behaviors run strictly in sequence:

    S0     conditioning: scale 16-bit integers into [-1, +1)
    S1-S3  x2 interpolation, INTERP_STAGES stages
    LINE   pulse-edge linearization (pseudo natural sampling)
    MOLD   second-order noise-shaped quantization to 7 bits

followed by the waveform generator, which expands each 7-bit code into a
128-bit leading-edge pulse frame.  The design is fixed: INTERP_STAGES x2
stages share one kernel, design_interp_kernel's FIR_TAPS taps, and MOLD
quantizes to QUANTIZER_BITS.  Every rate follows from the input stream;
for 44.1 kHz input the bit clock is 352800 * 128 = 45,158,400 Hz, where
doing the same job without the chain would take 2^16 * 44100 =
2,890,137,600 Hz of pulse resolution.

The stages pass plain numpy arrays: S0 takes int16 samples and returns
float64 in [-1, +1), S1-S3 and LINE map float64 to float64, MOLD returns
its codes as uint8, and generate_pwm packs codes into a PwmBitstream.
No rate travels with them: STAGES is a synchronous-dataflow table whose
rows give each behavior's rate, samples out per sample in, with its fresh
state and its step over one block.  BEHAVIORS is its names,
PWM_BITS_PER_SAMPLE follows from its rates, convert_stream folds each
block over its steps and profiler.op_counts scales its op model by the
rates.  All arithmetic is double precision.

convert_stream cuts its input once, at its entry, into blocks of at most
audio_io._BLOCK samples, as the SpecC behaviors pass bounded buffers, so
memory does not grow with the clip; every stage computes the block it is
handed in one pass.  Each stage takes a block plus the state it carried
from the previous block: S1-S3 their last FIR_TAPS - 1 zero-stuffed input
samples (FirState), LINE the look-behind and the pending look-ahead
sample (LineState), MOLD its error feedback e1, e2 (MoldState); S0 and
the waveform generator carry nothing.  A stage called without state
starts a fresh one, so it treats its input as the whole stream; with
state, LINE takes an empty block as the end of the stream, so it takes
no empty block before the end.  Every cut, down to 1-sample blocks, gives
the same bits as that one-block call.
convert is convert_stream over one PcmStream, collected (audio_io.collect).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .audio_io import (_BLOCK, _REAL, PcmStream, PwmBitstream, _cut, _integer,
                       _vector, collect)

PCM_FULL_SCALE = 32768  # divisor for S0; 16-bit two's-complement range

INTERP_STAGES = 3  # x2 interpolators S1-S3
FIR_TAPS = 63  # length of the kernel S1-S3 share
QUANTIZER_BITS = 7  # MOLD output codes
FRAME_BITS = 2 ** QUANTIZER_BITS  # one PWM frame, a counter period per code


def _blackman_sinc(num_taps: int, cutoff: float) -> np.ndarray:
    """Blackman-windowed sinc centred on the middle tap, the one core both
    filter designers scale."""
    _integer("num_taps", num_taps, 3)
    if num_taps % 2 == 0:
        raise ValueError(f"num_taps must be odd, got {num_taps}")
    if not 0.0 < cutoff < 0.5:
        raise ValueError("cutoff must be in (0, 0.5)")
    m = np.arange(num_taps) - (num_taps - 1) // 2
    return 2.0 * cutoff * np.sinc(2.0 * cutoff * m) * np.blackman(num_taps)


def design_interp_kernel() -> np.ndarray:
    """Read-only FIR_TAPS taps of a x2 interpolator: a Blackman-windowed
    sinc with its cutoff at a quarter of the stage output rate.

    The kernel is scaled so each polyphase branch sums to exactly 1, which
    makes the x2 stage DC-exact (total tap sum 2.0).
    """
    taps = 2.0 * _blackman_sinc(FIR_TAPS, 0.25)
    # exact unit DC gain per polyphase branch (each sums to about 1, not 0)
    for phase in (0, 1):
        taps[phase::2] /= taps[phase::2].sum()
    taps.flags.writeable = False
    return taps


def windowed_sinc_lowpass(num_taps: int, cutoff: float) -> np.ndarray:
    """Blackman-windowed sinc lowpass, unit DC gain.

    num_taps is an odd integer of at least 3, and cutoff the half-amplitude
    frequency as a fraction of the sampling rate, 0 < cutoff < 0.5;
    ValueError otherwise.  Stopband rejection is about 74 dB.
    """
    taps = _blackman_sinc(num_taps, cutoff)
    return taps / taps.sum()


# The leading-edge frame of each MOLD code c, c ones then zeros, packed
# LSB-first: 2^QUANTIZER_BITS rows of FRAME_BITS / 8 bytes.  The
# demodulator's first stage builds its table of frame rows from these.
_FRAMES = np.packbits(np.arange(FRAME_BITS) < np.arange(FRAME_BITS)[:, None],
                      axis=1, bitorder="little")

_KERNEL = design_interp_kernel()  # S1-S3's, designed once


@dataclass
class FirState:
    """What an x2 stage carries between blocks: its last FIR_TAPS - 1
    zero-stuffed input samples, fewer until it has seen that many."""

    history: np.ndarray = field(default_factory=lambda: np.zeros(0))


@dataclass
class LineState:
    """What LINE carries between blocks: its last two input samples, the
    look-behind and the sample that still waits for its look-ahead."""

    tail: np.ndarray = field(default_factory=lambda: np.zeros(0))


@dataclass
class MoldState:
    """What MOLD carries between blocks: the errors e[k-1], e[k-2]."""

    e1: float = 0.0
    e2: float = 0.0


# The chain, declared once: name, samples out per sample in, fresh state and
# step over one block.  Each step looks its stage function up when it runs,
# so a wrapper rebound to the module attribute (a tracer) sees every call.
Stage = namedtuple("Stage", "name rate state step")
STAGES = (
    Stage("S0", 1, lambda: None, lambda x, _: s0_condition(x)),
    *(Stage(f"S{i}", 2, FirState, lambda x, state, behavior=f"S{i}":
            upsample2(x, behavior=behavior, state=state))
      for i in range(1, INTERP_STAGES + 1)),
    Stage("LINE", 1, LineState, lambda x, state: linearize(x, state)),
    Stage("MOLD", 1, MoldState, lambda x, state: noise_shape(x, state)),
)
BEHAVIORS = tuple(stage.name for stage in STAGES)
PWM_BITS_PER_SAMPLE = FRAME_BITS * math.prod(stage.rate for stage in STAGES)


def s0_condition(samples: np.ndarray) -> np.ndarray:
    """S0: map int16 samples onto [-1, +1) as float64.  ValueError, naming
    what it got, for samples that are no 1-D int16 array."""
    samples = _vector("S0 input", samples, (np.int16,))
    return samples.astype(np.float64) / PCM_FULL_SCALE


def upsample2(x: np.ndarray, *, behavior: str = "S1",
              state: FirState | None = None) -> np.ndarray:
    """One x2 interpolation stage: zero-stuff, filter, saturate.

    The filter is design_interp_kernel's, the one kernel S1-S3 share, and
    the output the causal head of the full convolution, so the stage
    delays the signal by (FIR_TAPS - 1) / 2 output samples.  `behavior`
    (S1, S2 or S3), which STAGES passes, names the stage in the ValueError
    for a bad x and lets the benchmark tracer, perfbench/tracing.py, tell
    the three calls apart, until that tracer reads the names from STAGES.

    With `state`, `x` is the next block of a longer stream: it is filtered
    after the history the state holds, which it then updates, and each
    output is the same dot product as in a one-block call, bit for bit.
    ValueError for an x that is empty or no 1-D array of real samples
    (bool, integer or floating); a NaN or an infinity is filtered as it
    is, and LINE refuses what it becomes.
    """
    x = _vector(f"{behavior} input", x, _REAL)
    if len(x) == 0:
        raise ValueError("cannot upsample an empty stream")
    state = state or FirState()
    stuffed = np.zeros(len(state.history) + 2 * len(x))
    stuffed[:len(state.history)] = state.history
    stuffed[len(state.history)::2] = x
    out = _convolve(stuffed, _KERNEL)[len(state.history):len(stuffed)]
    state.history = stuffed[-(FIR_TAPS - 1):].copy()
    return np.clip(out, -1.0, 1.0, out=out)


def _convolve(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """np.convolve(x, h) with an x shorter than h zero-padded to its length,
    so the operands never swap: the first len(x) outputs are then summed
    the same way whatever samples follow x."""
    if len(x) < len(h):
        x = np.concatenate((x, np.zeros(len(h) - len(x))))
    return np.convolve(x, h)


def linearize(x: np.ndarray, state: LineState | None = None) -> np.ndarray:
    """LINE: replace each sample with the signal value at its pulse crossing.

    Uniformly sampled PWM fixes the pulse width from the sample at the frame
    start, which distorts the demodulated audio.  Natural sampling would set
    the width where the signal crosses the frame's ramp.  This stage
    approximates that crossing with a quadratic fit through neighbours
    (k-1, k, k+1): with u = (x + 1) / 2 mapped onto the ramp's unit scale,
    solve u(t) = t on the frame, 0 <= t <= 1, and emit 2 t - 1.  The first
    and last samples have no complete neighbourhood and pass through
    unchanged.

    Without `state`, `x` is the whole stream.  With it, `x` is the next
    block of a longer stream, and an empty block ends the stream: the
    blocks before it must be non-empty, and none may follow it.  A
    sample is emitted once its look-ahead has arrived, so a block's output
    lags its input by one sample, and the empty block emits the held
    sample.  ValueError for an x that is no 1-D array of real samples, or
    holds a NaN, an infinity or samples so large (about 1e155) that the
    crossing fit overflows.
    """
    x = _vector("LINE input", x, _REAL)
    if not np.isfinite(x).all():
        raise ValueError("LINE input must be finite")
    end = state is None or len(x) == 0
    state = state or LineState()
    first = len(state.tail) == 0
    x = np.concatenate([state.tail, x])
    try:
        with np.errstate(over="raise"):
            middle = _crossings(x)
    except FloatingPointError as exc:
        raise ValueError(f"LINE input too large to fit: {exc}") from exc
    state.tail = x[-2:].copy()
    parts = [x[:1] if first else x[:0], middle]
    if end and len(x) > 1:
        parts.append(x[-1:])
    return np.concatenate(parts)


def _crossings(x: np.ndarray) -> np.ndarray:
    """LINE's output for x[1:-1], each sample between its two neighbours."""
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
    return 2.0 * t - 1.0


def noise_shape(x: np.ndarray, state: MoldState | None = None) -> np.ndarray:
    """MOLD: error-feedback quantizer with noise transfer (1 - z^-1)^2.

    Per sample: v = x + 2 e[k-1] - e[k-2], v is clamped to [-1, 1], rounded
    half-up onto the 2^QUANTIZER_BITS - 1 grid, and the pre-clamp error
    v - dequantized(code) is fed back.  State starts at zero, or at what
    `state` carried from the previous block, which it then updates.
    Returns the codes, 0 .. 2^QUANTIZER_BITS - 1, as uint8.  ValueError
    for an x that is no 1-D array of real samples, or that leaves the
    error state not finite: x holds a NaN or an infinity, or values so
    large that the feedback overflows.
    """
    x = _vector("MOLD input", x, _REAL)
    n_levels = 2 ** QUANTIZER_BITS - 1
    half = n_levels / 2.0
    inv_half = 1.0 / half
    deq = [code * inv_half - 1.0 for code in range(n_levels + 1)]

    codes = bytearray()  # 0 .. n_levels fits a byte
    append = codes.append
    state = state or MoldState()
    e1, e2 = state.e1, state.e2
    try:
        for xv in x.tolist():
            v = xv + 2.0 * e1 - e2
            c = 1.0 if v > 1.0 else (-1.0 if v < -1.0 else v)
            # round half-up; -1 <= c <= 1 puts the argument in [0, 127.5],
            # so code is 0 .. n_levels and needs no clamp
            code = int((c + 1.0) * half + 0.5)
            append(code)
            e2 = e1
            e1 = v - deq[code]
    except ValueError:  # int() of a NaN v: the check below refuses it
        e1 = math.nan
    # a NaN, an infinity or an overflow leaves the state not finite: one
    # check a block, not one a sample
    if not (math.isfinite(e1) and math.isfinite(e2)):
        raise ValueError("MOLD input must be finite")
    state.e1, state.e2 = e1, e2
    return np.frombuffer(codes, dtype=np.uint8)


def generate_pwm(codes: np.ndarray, sample_rate: int) -> PwmBitstream:
    """Expand MOLD codes at `sample_rate` into leading-edge pulse frames,
    packed as PWM1 payload.

    A frame for code c is c ones followed by (FRAME_BITS - c) zeros: the
    hardware equivalent compares a free-running counter against a code
    register.  The bit clock is sample_rate * FRAME_BITS.  Each code is
    one lookup into the table of the 128 frames; a code below 0 or of 128
    or more raises IndexError.  ValueError for codes that are no 1-D bool
    or integer array, or a sample_rate that is no integer of at least 0.
    """
    codes = _vector("codes", codes, (np.bool_, np.integer))
    _integer("sample_rate", sample_rate, 0)
    low = np.min(codes, initial=0)
    if low < 0:  # take would wrap it to a frame from the other end
        raise IndexError(f"code {low} is out of bounds for the "
                         f"{FRAME_BITS} frames")
    return PwmBitstream(payload=_FRAMES.take(codes, axis=0).reshape(-1),
                        n_bits=len(codes) * FRAME_BITS,
                        clock_hz=sample_rate * FRAME_BITS,
                        frame_bits=FRAME_BITS)


def convert_stream(blocks: Iterable[np.ndarray], sample_rate: int
                   ) -> Iterator[np.ndarray]:
    """Run the chain over int16 blocks of PCM samples at `sample_rate` and
    yield the packed PWM1 payload, block by block.

    The blocks may have any sizes; the chain sees them cut into at most
    _BLOCK samples, and every cut gives the same bytes.  All payload
    blocks joined are what generate_pwm would make for the whole stream:
    PWM_BITS_PER_SAMPLE bits per input sample at a sample_rate *
    PWM_BITS_PER_SAMPLE Hz bit clock.  Raises ValueError, on the first
    step, for a sample_rate that is no integer of at least 1 (a bool is
    none), at a block that is no 1-D int16 array, as s0_condition takes,
    and, at the end, for a stream with no samples.
    """
    _integer("sample_rate", sample_rate, 1)
    rate = sample_rate * PWM_BITS_PER_SAMPLE // FRAME_BITS  # MOLD's code rate
    steps = [(stage.step, stage.state()) for stage in STAGES]
    line = BEHAVIORS.index("LINE")
    blocks = (_vector("block", block, (np.int16,)) for block in blocks)
    for x in _cut(blocks, _BLOCK):
        for step, state in steps:
            x = step(x, state)
        yield generate_pwm(x, rate).payload
    if len(steps[line][1].tail) == 0:
        raise ValueError("cannot convert an empty stream")
    # an empty block ends LINE's stream: its held sample comes out
    x = np.zeros(0)
    for step, state in steps[line:]:
        x = step(x, state)
    yield generate_pwm(x, rate).payload


def convert(pcm: PcmStream) -> PwmBitstream:
    """Full chain S0 -> S1 -> S2 -> S3 -> LINE -> MOLD -> PWM over a whole
    stream: convert_stream's blocks, collected into one payload."""
    n_bits = len(pcm) * PWM_BITS_PER_SAMPLE
    payload = collect(convert_stream([pcm.samples], pcm.sample_rate),
                      n_bits // 8, np.uint8)
    return PwmBitstream(payload=payload, n_bits=n_bits,
                        clock_hz=pcm.sample_rate * PWM_BITS_PER_SAMPLE,
                        frame_bits=FRAME_BITS)
