import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcm2pwm import audio_io, verification
from pcm2pwm.audio_io import PcmStream, PwmBitstream
from pcm2pwm.chain import (FIR_TAPS, STAGES, convert, convert_stream,
                           generate_pwm, noise_shape)
from pcm2pwm.verification import (SNR_CAP_DB, LengthMismatch, MalformedStream,
                                  demodulate, demodulate_stream, measure)

import oracles
from conftest import sine_int16

RATE = 44100
CHAIN_RATE = 352800
CHAIN_DELAY = oracles.chain_delay(STAGES, FIR_TAPS)  # in input samples


def constant_code_pwm(code, frames=4096):
    return generate_pwm(np.full(frames, code), CHAIN_RATE)


def collect(blocks):
    return np.concatenate([np.zeros(0), *blocks])


def settled(samples):
    n = len(samples)
    return samples[n // 4: -n // 4]


def sine(freq, amp, n, rate=RATE):
    return amp * np.sin(2 * np.pi * freq * np.arange(n) / rate)


# --- demodulation ----------------------------------------------------------

def test_demodulate_midscale():
    out = demodulate(constant_code_pwm(64))
    assert out.dtype == np.float64
    assert np.all(np.abs(settled(out)) <= 1e-2)


def test_demodulate_all_ones():
    bits = np.ones(128 * 2048, dtype=np.uint8)
    pwm = PwmBitstream.from_bits(bits, clock_hz=45158400, frame_bits=128)
    out = demodulate(pwm)
    assert np.all(settled(out) >= 0.99)


def test_demodulate_length():
    out = demodulate(constant_code_pwm(64, frames=8000))
    assert len(out) == 8000 // 8  # one output sample per 1024 bits


def test_demodulate_constant_code_dc_sample():
    """Spot-check the code-to-level law on a few codes (full sweep lives in
    the acceptance suite)."""
    lsb = 2.0 / 127
    for code in (0, 17, 64, 113, 127):
        out = demodulate(constant_code_pwm(code))
        level = settled(out).mean()
        assert abs(level - (2 * code / 127 - 1)) <= lsb


@pytest.mark.parametrize("rate", [48000, 8000])
def test_demodulate_finds_the_rate_in_the_clock(rate):
    """Chain output at any input rate comes back at that rate, one sample
    per input sample, without being told the rate."""
    samples = sine_int16(1000, 0.5, 0.1, rate)
    assert len(demodulate(convert(PcmStream(samples, rate)))) == len(samples)


@pytest.mark.parametrize("clock_hz,match", [
    (0, "^clock_hz must be an integer of at least 1, got 0$"),
    (1024 * RATE + 1, f"^bit clock {1024 * RATE + 1} is not a multiple of "
                      f"1024$"),
    (1024.0 * RATE, f"^clock_hz must be an integer of at least 1, got "
                    f"{1024.0 * RATE}$"),
    (True, "^clock_hz must be an integer of at least 1, got True$")],
    ids=["0", "45158401", "float", "bool"])
def test_demodulate_stream_rejects_bad_clock(clock_hz, match):
    """A clock that is no positive integer multiple of 1024 is no chain's:
    the first step raises, before a payload byte is read."""
    def unread():
        raise AssertionError("the payload was read")
        yield
    with pytest.raises(MalformedStream, match=match):
        next(demodulate_stream(unread(), n_bits=0, clock_hz=clock_hz))


def test_demodulate_stream_rejects_negative_bit_count():
    """A negative bit count is refused by name on the first step, before a
    payload byte is read, not as a negative byte count at the end."""
    def unread():
        raise AssertionError("the payload was read")
        yield
    with pytest.raises(MalformedStream, match="^n_bits must be an integer of "
                                              "at least 0, got -1024$"):
        next(demodulate_stream(unread(), n_bits=-1024, clock_hz=1024 * RATE))


@pytest.mark.parametrize("n_bits", [2400.0, True])
def test_demodulate_stream_rejects_bit_counts_that_are_no_integers(n_bits):
    """A float bit count is refused by name, not by numpy's TypeError at a
    slice; a bool one, not read as 1 bit to return no audio."""
    with pytest.raises(MalformedStream, match=f"^n_bits must be an integer "
                                              f"of at least 0, got {n_bits}$"):
        collect(demodulate_stream([np.zeros(300, np.uint8)], n_bits=n_bits,
                                  clock_hz=1024 * RATE))


@pytest.mark.parametrize("block,got", [
    (np.zeros(128, np.int64), "int64 of shape \\(128,\\)"),
    (np.zeros((16, 8), np.uint8), "uint8 of shape \\(16, 8\\)"),
    (np.zeros((), np.uint8), "uint8 of shape \\(\\)"),
    (bytes(128), "bytes")], ids=["int64", "2-d", "0-d", "bytes"])
def test_demodulate_stream_rejects_blocks_not_1d_uint8(block, got):
    """Payload blocks are 1-D uint8 arrays; anything else is named, not
    read as bytes of another width or counted by its rows."""
    with pytest.raises(MalformedStream, match=f"^payload block must be a 1-D "
                                              f"uint8 array, got {got}$"):
        collect(demodulate_stream([block], n_bits=1024, clock_hz=1024 * RATE))


@pytest.mark.parametrize("rate", [1, 43478, 43479, 44100, 48000, 192000,
                                  4194303])
def test_stage_filters_are_long_enough_to_decimate(rate):
    """Both stages' filters reach back at least m - 1 inputs from their
    middle tap, D >= m - 1, at the edges of _stage_filter's cases up to the
    PWM1 clock ceiling: _polyphase_decimate's branch starts D - r are then
    never negative."""
    clock_hz, frame_rate = 1024 * rate, 8 * rate
    for h, m in ((verification._stage_filter(clock_hz, frame_rate, rate), 128),
                 (verification._stage_filter(frame_rate, rate, rate), 8)):
        assert (len(h) - 1) // 2 >= m - 1


def test_demodulate_rejects_other_frame_sizes():
    """300 samples' worth of bits in 64-bit frames is no chain's stream:
    demodulate raises rather than reading it as 128-bit frames."""
    pwm = PwmBitstream.from_bits(np.zeros(300 * 1024, dtype=np.uint8),
                                 clock_hz=1024 * RATE, frame_bits=64)
    with pytest.raises(MalformedStream, match="64-bit PWM frames"):
        demodulate(pwm)


# --- frame-table first stage -------------------------------------------------

def flipped_frames(n, seed):
    """Leading-edge 128-bit frames of random codes with a few bits flipped:
    frames of the chain's alphabet beside frames outside it."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 128, n // 128 + 1)
    i = np.arange(n)
    bits = (i % 128 < codes[i // 128]).astype(np.uint8)
    if n:
        bits[rng.integers(0, n, 3)] ^= 1
    return bits.tolist()


bitstreams = st.one_of(
    st.lists(st.integers(0, 1), max_size=3000),
    st.tuples(st.integers(0, 3000), st.integers(0, 2 ** 32 - 1)).map(
        lambda a: flipped_frames(*a)),
    st.integers(0, 3000).map(lambda n: [0] * n),
    st.integers(0, 3000).map(lambda n: [1] * n),
)


@settings(max_examples=200, deadline=None)
@given(bits=bitstreams, half=st.integers(127, 600),
       taps_seed=st.integers(0, 2 ** 32 - 1), cut=st.integers(1, 80))
@example(bits=[1], half=397, taps_seed=0, cut=1)  # one bit
@example(bits=[1] * 70 + [0] * 30, half=397, taps_seed=1, cut=3)  # partial
# one whole frame outside the alphabet, between two inside it
@example(bits=[1] * 5 + [0] * 123 + [0, 1] * 64 + [1] * 128, half=127,
         taps_seed=2, cut=7)
def test_frame_decimate_matches_direct_form(bits, half, taps_seed, cut):
    h = np.random.default_rng(taps_seed).standard_normal(2 * half + 1)
    b = np.array(bits, dtype=np.uint8)
    payload = np.packbits(b, bitorder="little")
    # the payload arrives `cut` bytes at a time, one pass each, so passes
    # start inside frames and the filter's windows
    pieces = [payload[i:i + cut] for i in range(0, len(payload), cut)]
    y = collect(verification._frame_decimate(pieces, len(b), h))
    expected = oracles.decimate_direct(2.0 * b - 1.0, h, 128)
    assert y.shape == expected.shape
    np.testing.assert_allclose(y, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("samples", [
    np.random.default_rng(0).normal(0, 16384, 400).clip(-32768, 32767),
    np.zeros(400),
    sine_int16(1000, 1.0, 400 / RATE),
    np.full(400, 32767),
], ids=["noise", "silence", "full-scale-sine", "full-scale-dc"])
def test_frame_decimate_matches_direct_form_on_short_clips(samples):
    """400 samples of each kind, converted by the chain and cut at 1000
    bytes: every output within 1e-12 of the direct form."""
    pwm = convert(PcmStream(samples.astype(np.int16), RATE))
    h = verification._stage_filter(pwm.clock_hz, pwm.clock_hz // 128, RATE)
    pieces = np.split(pwm.payload, range(1000, len(pwm.payload), 1000))
    bits = np.unpackbits(pwm.payload, bitorder="little")
    np.testing.assert_allclose(
        collect(verification._frame_decimate(pieces, len(pwm), h)),
        oracles.decimate_direct(2.0 * bits - 1.0, h, 128), rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def stage1_minus6():
    """The 4.3 s, 1 kHz, -6 dBFS clip and the first stage's filter."""
    pwm = convert(PcmStream(sine_int16(1000, 0.5, 4.3), RATE))
    h = verification._stage_filter(pwm.clock_hz, pwm.clock_hz // 128, RATE)
    return pwm, h


def payload_cut(payload, n_bits):
    """The payload as demodulate_stream hands it to stage 1."""
    return audio_io._cut(audio_io._payload_blocks([payload], n_bits),
                         verification._PAYLOAD_BLOCK)


def test_frame_decimate_matches_polyphase_on_clip(stage1_minus6):
    pwm, h = stage1_minus6
    y = collect(verification._frame_decimate(
        payload_cut(pwm.payload, len(pwm)), len(pwm), h))
    # +-1 in int8 keeps the unpacked copy at 1 byte/bit
    signs = np.unpackbits(pwm.payload, count=len(pwm),
                          bitorder="little").view(np.int8)
    signs *= 2
    signs -= 1
    reference = collect(verification._polyphase_decimate([signs], len(signs),
                                                         h, 128))
    del signs
    # _polyphase_decimate counts its first inputs as zero; compare after them
    start = -(-len(h) // 128) + 1
    np.testing.assert_allclose(y[start:], reference[start:], rtol=0,
                               atol=1e-12)


def test_frame_decimate_matches_direct_form_on_clip_prefix(stage1_minus6):
    pwm, h = stage1_minus6
    payload = pwm.payload[:2 ** 14]  # the first 2^17 bits
    prefix = np.unpackbits(payload, bitorder="little")
    np.testing.assert_allclose(
        collect(verification._frame_decimate(payload_cut(payload, 2 ** 17),
                                             2 ** 17, h)),
        oracles.decimate_direct(2.0 * prefix - 1.0, h, 128), rtol=0,
        atol=1e-12)


def test_frame_decimate_matches_direct_form_on_clip_end(stage1_minus6):
    """The outputs whose windows lie in the clip's last 2^17 bits, the
    last of them running past its end, where the stream steps to 0."""
    pwm, h = stage1_minus6
    y = collect(verification._frame_decimate(
        payload_cut(pwm.payload, len(pwm)), len(pwm), h))
    suffix = np.unpackbits(pwm.payload[-2 ** 14:], bitorder="little")
    expected = oracles.decimate_direct(2.0 * suffix - 1.0, h, 128)
    # the first output of the suffix whose window starts inside it
    inside = -(-(len(h) - 1 - (len(h) - 1) // 2) // 128)
    np.testing.assert_allclose(y[-len(expected):][inside:], expected[inside:],
                               rtol=0, atol=1e-12)


# the payload of one chain block: 1024 input samples of 1024 bits each
CHAIN_BLOCK_BYTES = 1 << 17


def spy_stage1(sizes):
    """_frame_decimate, appending the size of each block it takes (one
    pass each) to `sizes`."""
    real = verification._frame_decimate

    def spy(blocks, *args):
        def seen():
            for block in blocks:
                sizes.append(len(block))
                yield block
        return real(seen(), *args)
    return mock.patch.object(verification, "_frame_decimate", spy)


def test_edge_decimate_takes_at_most_one_chain_block(stage1_minus6):
    """Stage 1 never sees more than one chain block's payload, 128 KiB,
    at a time, even when demodulate hands it the whole payload as one
    block."""
    pwm, _ = stage1_minus6
    sizes = []
    with spy_stage1(sizes):
        demodulate(pwm)
    assert sum(sizes) == len(pwm.payload) > CHAIN_BLOCK_BYTES
    assert max(sizes) == CHAIN_BLOCK_BYTES


def test_one_stage1_pass_per_chain_block():
    """Fed by convert_stream, as roundtrip's worker is, the demodulator
    takes each payload block the chain yields in one stage-1 pass, cutting
    none of them again."""
    samples = sine_int16(1000, 0.5, 0.2)  # 8 whole blocks and a part
    chain_sizes, sizes = [], []

    def chain_blocks():
        for block in convert_stream([samples], RATE):
            chain_sizes.append(len(block))
            yield block
    with spy_stage1(sizes):
        collect(demodulate_stream(chain_blocks(), n_bits=len(samples) * 1024,
                                  clock_hz=1024 * RATE))
    assert max(chain_sizes) == CHAIN_BLOCK_BYTES
    assert sizes == chain_sizes


def test_demodulate_peak_memory(stage1_minus6):
    """demodulate on the 4.3 s clip holds no whole-stream intermediate:
    its 24 MB payload is the caller's, its 1.5 MB of audio the result."""
    pwm, _ = stage1_minus6
    tracemalloc.start()
    try:
        demodulate(pwm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20, peak


# --- streaming ---------------------------------------------------------------

def pwm_bits(n_bits, seed, dense):
    """Random bits (dense), or leading-edge 128-bit frames of random codes:
    at most two transitions a frame, as the chain makes them."""
    rng = np.random.default_rng(seed)
    if dense:
        return rng.integers(0, 2, n_bits, dtype=np.uint8)
    codes = rng.integers(0, 129, n_bits // 128 + 1)
    i = np.arange(n_bits)
    return (i % 128 < codes[i // 128]).astype(np.uint8)


@settings(max_examples=80, deadline=None)
@given(n_bits=st.integers(0, 1 << 21), seed=st.integers(0, 2 ** 32 - 1),
       dense=st.booleans(), step=st.integers(1, 1 << 18),
       cuts=st.lists(st.integers(0, 1 << 18), max_size=8))
# shorter than the stage-2 branch filter, and than one 128 KiB pass, both
# a byte at a time
@example(n_bits=100_000, seed=0, dense=False, step=1, cuts=[])
@example(n_bits=400_003, seed=1, dense=False, step=1, cuts=[])
@example(n_bits=1 << 21, seed=2, dense=False, step=1 << 18,
         cuts=[5, 9000, 65536])
def test_demodulate_stream_any_cut_matches_one_shot(n_bits, seed, dense, step,
                                                    cuts):
    """Any cut of the payload, from one byte to all of it and off frame
    boundaries, gives the one-block samples bit for bit."""
    pwm = PwmBitstream.from_bits(pwm_bits(n_bits, seed, dense),
                                 clock_hz=1024 * RATE, frame_bits=1)
    payload = pwm.payload
    step = max(step, len(payload) >> 14)  # at most 2^14 even pieces
    edges = sorted({c % (len(payload) + 1) for c in cuts}
                   | set(range(0, len(payload), step)))
    pieces = np.split(payload, edges)
    streamed = collect(demodulate_stream(pieces, n_bits=n_bits,
                                         clock_hz=pwm.clock_hz))
    # demodulate's body: it refuses frames other than the chain's 128
    # bits, and these bits need not fill whole 128-bit frames
    one_shot = audio_io.collect(
        demodulate_stream([payload], n_bits=n_bits, clock_hz=pwm.clock_hz),
        n_bits // 1024, np.float64)
    assert streamed.tobytes() == one_shot.tobytes()


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 6000), step=st.integers(1, 6000),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=3000, step=3000, seed=0)
def test_demodulate_stream_fed_by_convert_stream(n, step, seed):
    samples = np.random.default_rng(seed).integers(
        -16384, 16384, n).astype(np.int16)
    blocks = convert_stream((samples[i:i + step] for i in range(0, n, step)),
                            RATE)
    streamed = collect(demodulate_stream(blocks, n_bits=n * 1024,
                                         clock_hz=1024 * RATE))
    one_shot = demodulate(convert(PcmStream(samples, RATE)))
    assert streamed.tobytes() == one_shot.tobytes()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 3000), m=st.integers(1, 8),
       extra_half=st.integers(0, 70), seed=st.integers(0, 2 ** 32 - 1),
       cuts=st.lists(st.integers(0, 3000), max_size=12))
@example(n=2000, m=8, extra_half=466, seed=0, cuts=[1, 2, 3, 500, 1000])
@example(n=2000, m=8, extra_half=60, seed=0, cuts=[1999])  # last block: 1
def test_polyphase_decimate_any_cut_matches_one_block(n, m, extra_half, seed,
                                                      cuts):
    """Stage 2 over any cut, down to single samples and to blocks that
    leave a branch shorter than its filter, sums every output as one
    block does."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(2 * (m - 1 + extra_half) + 1)
    x = rng.standard_normal(n)
    pieces = np.split(x, sorted(c % (n + 1) for c in cuts))
    streamed = collect(verification._polyphase_decimate(pieces, n, h, m))
    one_block = collect(verification._polyphase_decimate([x], n, h, m))
    assert streamed.tobytes() == one_block.tobytes()


@pytest.mark.parametrize("size", [127, 129])
def test_demodulate_stream_rejects_wrong_payload_size(size):
    """1024 bits need 128 bytes; a stream that ends early or runs on is
    malformed, not silently short or long."""
    with pytest.raises(MalformedStream, match="1024 bits need 128 payload"):
        collect(demodulate_stream([np.zeros(size, dtype=np.uint8)],
                                  n_bits=1024, clock_hz=1024 * RATE))


# --- measurement ------------------------------------------------------------

def test_measure_identical_hits_cap():
    x = sine(1000, 0.5, 65536)
    report = measure(x, x, RATE)
    assert report.snr_db == SNR_CAP_DB
    assert report.fundamental_hz == pytest.approx(1000.0, abs=1.0)


def test_measure_white_noise_floor():
    rng = np.random.default_rng(42)
    ref = sine(1000, 0.5, 65536)
    noise = rng.standard_normal(len(ref))
    noise *= np.sqrt((ref ** 2).mean() / (noise ** 2).mean()) * 10 ** (-40 / 20)
    report = measure(ref, ref + noise, RATE)
    assert report.snr_db == pytest.approx(40.0, abs=0.5)


def test_measure_too_short():
    x = np.zeros(16)
    with pytest.raises(LengthMismatch):
        measure(x, x, RATE)


@pytest.mark.parametrize("which,value", [(0, np.nan), (1, np.nan),
                                         (1, np.inf), (0, -np.inf)])
def test_measure_rejects_non_finite_samples(which, value):
    """A NaN or inf gives no meaningful report: ValueError, not a NaN SNR
    or a RuntimeWarning."""
    streams = [sine(1000, 0.5, 4096), sine(1000, 0.5, 4096)]
    streams[which][100] = value
    with pytest.raises(ValueError, match="finite"):
        measure(*streams, RATE)


@pytest.mark.parametrize("rate", [0, -RATE, np.nan, np.inf, True, 44100.5])
def test_measure_rejects_non_positive_rate(rate):
    """A rate is a positive integer: NaN is not a numpy error from deep in
    the harmonic analysis, and True or 44100.5 no report."""
    x = sine(1000, 0.5, 4096)
    with pytest.raises(ValueError, match=f"^rate must be an integer of at "
                                         f"least 1, got {rate}$"):
        measure(x, x, rate)


@pytest.mark.parametrize("which,stream,got", [
    (1, np.zeros(4096, complex), r"complex128 of shape \(4096,\)"),
    (0, np.zeros((2, 4096)), r"float64 of shape \(2, 4096\)"),
    (1, np.zeros(4096, object), r"object of shape \(4096,\)")])
def test_measure_refuses_arrays_not_1d_real(which, stream, got):
    """ref and test are 1-D real samples: a complex stream is not scored
    by its real part after a ComplexWarning, and a 2-D one is named, not
    counted by its rows."""
    streams = [sine(1000, 0.5, 4096), sine(1000, 0.5, 4096)]
    streams[which] = stream
    name = ("ref", "test")[which]
    with pytest.raises(ValueError, match=f"^{name} must be a 1-D bool or "
                                         f"integer or floating array, got "
                                         f"{got}$"):
        measure(*streams, RATE)


def test_measure_silence_reference_caps():
    report = measure(np.zeros(65536), sine(1000, 0.01, 65536), RATE)
    assert report.snr_db == SNR_CAP_DB


def test_measure_fractional_delay_alignment():
    n = 65536
    t = np.arange(n)
    ref = 0.5 * np.sin(2 * np.pi * 1000 * t / RATE)
    test = 0.5 * np.sin(2 * np.pi * 1000 * (t - CHAIN_DELAY) / RATE)
    report = measure(ref, test, RATE)
    assert report.snr_db > 70.0


def test_measure_stream_leading_its_reference():
    """A test stream that leads its reference is moved the other way
    (_apply_delay's lag < 0) and scores as the mirrored lag does."""
    x = np.random.default_rng(5).standard_normal(65536 + 37)
    ref, test = x[:65536], x[37:]
    assert verification._estimate_delay(ref - ref.mean(),
                                        test - test.mean())[0] == -37
    lead = measure(ref, test, RATE)
    assert lead.snr_db > 70.0
    assert lead.snr_db == pytest.approx(measure(test, ref, RATE).snr_db,
                                        abs=1e-6)


def test_fft_size_is_the_next_2_3_5_smooth_length():
    """Every m up to 5000 against a brute-force search, and the lengths
    measure's cross-correlation takes for 1, 4.3, 20 and 60 s clips."""
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1
    nxt = 5 ** 6  # 15625: 2-3-5 smooth and above every m below
    for m in range(5000, 0, -1):
        if smooth(m):
            nxt = m
        assert verification._fft_size(m) == nxt, m
    for n, size in [(44100, 67500), (189630, 288000), (882000, 1327104),
                    (2646000, 3981312)]:
        assert verification._fft_size(n + n // 2 + 1) == size


@settings(max_examples=60, deadline=None)
@given(n=st.integers(256, 4096), seed=st.integers(0, 2 ** 32 - 1),
       where=st.floats(-1.0, 1.0))
@example(n=256, seed=0, where=-1.0)
@example(n=256, seed=0, where=1.0)
@example(n=256, seed=0, where=-127 / 128)  # next to an end: d = -127
@example(n=256, seed=0, where=127 / 128)
@example(n=4095, seed=1, where=-1.0)
@example(n=4095, seed=1, where=1.0)
def test_estimate_delay_matches_direct_correlation(n, seed, where):
    """Noise and its copy delayed by any d in the search range, ends
    included, give direct correlation's lag and fraction: a correlation
    too short to hold every searched lag unwrapped would not."""
    max_lag = n // 2
    d = round(where * max_lag)
    x = np.random.default_rng(seed).standard_normal(n + 2 * max_lag)
    r = x[max_lag:max_lag + n]
    t = x[max_lag - d:max_lag - d + n]  # t[j] = r[j - d]
    lag, frac = verification._estimate_delay(r, t)
    want_lag, want_frac = oracles.correlation_delay(r, t)
    assert lag == want_lag
    assert abs(frac - want_frac) <= 1e-9


def test_measure_peak_memory():
    """measure on a 4.3 s clip and its copy delayed as the chain delays: the
    cross-correlation takes 288,000 points, not the 524,288 of the power
    of two at or above 2n."""
    n = 189630
    ref = sine(1000, 0.5, n)
    test = 0.5 * np.sin(2 * np.pi * 1000 * (np.arange(n) - CHAIN_DELAY)
                        / RATE)
    tracemalloc.start()
    try:
        measure(ref, test, RATE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 << 20, peak


def test_measure_gain_invariance():
    ref = sine(1000, 0.5, 65536)
    report = measure(ref, 0.25 * ref, RATE)
    assert report.snr_db == SNR_CAP_DB


def test_measure_detects_harmonics():
    fund = sine(1000, 0.5, 65536)
    test = fund + 0.005 * sine(3000, 1.0, 65536)
    report = measure(fund, test, RATE)
    # third harmonic at -40 dB relative to the fundamental
    assert report.thd_db == pytest.approx(-40.0, abs=0.8)


def test_shaped_noise_beats_plain_rounding_via_measure():
    x = sine(1000, 0.5, 32768, rate=CHAIN_RATE)
    shaped = oracles.dequantize(noise_shape(x), 7)
    plain = oracles.dequantize(oracles.round_half_up_quantize(x, 7), 7)
    r_shaped = measure(x, shaped, CHAIN_RATE)
    r_plain = measure(x, plain, CHAIN_RATE)
    assert r_shaped.inband_noise_power < r_plain.inband_noise_power


def test_report_serialization():
    x = sine(1000, 0.5, 65536)
    report = measure(x, x, RATE)
    text = report.text()
    assert "snr" in text and "fundamental" in text
    lines = report.csv().splitlines()
    assert lines[0] == "fundamental_hz,snr_db,thd_db,inband_noise_power"
    assert len(lines) == 2
