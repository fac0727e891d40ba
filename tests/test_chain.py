import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcm2pwm import chain
from pcm2pwm.audio_io import PcmStream
from pcm2pwm.chain import (BEHAVIORS, FIR_TAPS, FRAME_BITS, INTERP_STAGES,
                           QUANTIZER_BITS, FirState, LineState, MoldState,
                           convert, convert_stream, design_interp_kernel,
                           generate_pwm, linearize, noise_shape, s0_condition,
                           upsample2, windowed_sinc_lowpass)

import oracles


def sine(freq, amp, n, rate=352800):
    return amp * np.sin(2 * np.pi * freq * np.arange(n) / rate)


# --- design constants -----------------------------------------------------------

def test_rate_arithmetic_exact():
    assert (INTERP_STAGES, FIR_TAPS, QUANTIZER_BITS) == (3, 63, 7)
    pwm = convert(PcmStream(np.zeros(16, dtype=np.int16), 44100))
    assert pwm.frame_bits == FRAME_BITS == 2 ** QUANTIZER_BITS == 128
    assert pwm.clock_hz == 44100 * 2 ** INTERP_STAGES * pwm.frame_bits
    assert pwm.clock_hz == 45158400
    # every rate follows from the input stream
    pwm48 = convert(PcmStream(np.zeros(16, dtype=np.int16), 48000))
    assert pwm48.clock_hz == 48000 * 8 * 128


def test_behavior_names_fixed():
    assert BEHAVIORS == ("S0", "S1", "S2", "S3", "LINE", "MOLD")


def test_chain_delay_from_the_table():
    """The x2 rows' group delays, scaled by the table's rates, give the
    chain's delay in input samples: 15.5 + 7.75 + 3.875."""
    assert oracles.chain_delay(chain.STAGES, FIR_TAPS) == 27.125


# --- S0 -------------------------------------------------------------------

def test_s0_exact_scaling():
    out = s0_condition(np.array([0, 16384, -32768], dtype=np.int16))
    assert out.dtype == np.float64
    assert out.tolist() == [0.0, 0.5, -1.0]


def test_s0_empty():
    out = s0_condition(np.zeros(0, dtype=np.int16))
    assert len(out) == 0


def test_s0_preserves_length():
    n = 189630
    out = s0_condition(np.zeros(n, dtype=np.int16))
    assert len(out) == n
    assert np.all(np.abs(out) <= 1.0)


@pytest.mark.parametrize("samples,dtype", [
    (np.array([70000, -70000], np.int32), "int32"),
    (np.array([1.5, np.nan]), "float64"),
    (np.array([0, 1], np.uint16), "uint16")])
def test_s0_refuses_other_dtypes(samples, dtype):
    """S0 takes int16 only: wider integers would land outside [-1, +1) and
    floats would be scaled as they are, NaN included."""
    with pytest.raises(ValueError, match=fr"^S0 input must be a 1-D int16 "
                                         fr"array, got {dtype} of shape "
                                         r"\(2,\)$"):
        s0_condition(samples)


# --- interpolation ----------------------------------------------------------

def test_kernel_shape():
    k = design_interp_kernel()
    assert len(k) == FIR_TAPS
    assert not k.flags.writeable
    assert np.allclose(k, k[::-1])  # linear phase
    assert k.sum() == pytest.approx(2.0, abs=1e-12)
    impulse = upsample2(np.r_[0.5, np.zeros(FIR_TAPS // 2)])  # S1-S3 use it
    assert np.array_equal(impulse[:FIR_TAPS], 0.5 * k)


@pytest.mark.parametrize("cutoff", [0.0, 0.5])
def test_sinc_cutoff_is_open_interval(cutoff):
    with pytest.raises(ValueError, match="cutoff"):
        windowed_sinc_lowpass(31, cutoff)


def test_upsample2_zeros():
    out = upsample2(np.zeros(100))
    assert len(out) == 200
    assert np.all(out == 0.0)


def test_upsample2_dc_gain():
    out = upsample2(np.full(256, 0.5))
    steady = out[100:-100]
    assert np.all(np.abs(steady - 0.5) <= 1e-3)


def test_upsample2_rejects_empty():
    with pytest.raises(ValueError):
        upsample2(np.zeros(0))


@pytest.mark.parametrize("stage,name", [(upsample2, "S1"),
                                         (linearize, "LINE"),
                                         (noise_shape, "MOLD")])
def test_float_stages_refuse_arrays_not_1d(stage, name):
    """S1-S3, LINE and MOLD take one-dimensional arrays; another shape is
    named, not broadcast, joined or iterated."""
    with pytest.raises(ValueError, match=fr"^{name} input must be a 1-D bool "
                                         r"or integer or floating array, got "
                                         r"float64 of shape \(2, 10\)$"):
        stage(np.zeros((2, 10)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("stage,name", [(linearize, "LINE"),
                                         (noise_shape, "MOLD")])
def test_line_and_mold_refuse_samples_not_finite(stage, name, value):
    """A NaN or inf is refused by name: MOLD does not fail in int() on a
    NaN or emit codes from an inf error state, and LINE does not pass a
    NaN on or warn on an inf."""
    with pytest.raises(ValueError, match=f"^{name} input must be finite$"):
        stage(np.array([0.1, value, 0.2]))


def test_mold_refuses_an_error_state_that_overflows():
    """Finite samples so large that the error feedback overflows are
    refused too, rather than shaped from an infinite state."""
    with pytest.raises(ValueError, match="^MOLD input must be finite$"):
        noise_shape(np.array([0.1, 1e308, 0.2]))


def test_upsample2_length_law():
    for n in (1, 7, 100, 1001):
        out = upsample2(np.random.default_rng(n).uniform(-0.5, 0.5, n))
        assert len(out) == 2 * n


def test_cascade_image_rejection():
    """1 kHz sine through the three stages: images above 22.05 kHz stay
    at least 60 dB under the fundamental."""
    n = 8192
    x = sine(1000, 32767 / 32768, n, rate=44100)
    for _ in range(3):
        x = upsample2(x)
    assert len(x) == 8 * n >= 2 ** 15  # at 352.8 kHz

    nfft = 2 ** 15
    power = oracles.power_spectrum(x[4096:], nfft=nfft)
    p_fund = oracles.tone_power(power, 352800, 1000, nfft)
    worst = oracles.peak_above(power, 352800, nfft, 22050)
    assert 10 * np.log10(worst / p_fund) <= -60.0


# --- linearization -----------------------------------------------------------

def test_linearize_constant_passthrough():
    out = linearize(np.full(32, 0.25))
    assert np.allclose(out, 0.25, atol=1e-12)


def test_linearize_zeros():
    out = linearize(np.zeros(32))
    assert np.all(out == 0.0)


def test_linearize_endpoints_uncorrected():
    x = np.linspace(-0.5, 0.5, 16)
    out = linearize(x)
    assert out[0] == x[0]
    assert out[-1] == x[-1]


def test_linearize_bounded():
    x = 0.99 * np.sin(2 * np.pi * 15000 * np.arange(2048) / 352800)
    out = linearize(x)
    assert np.all(out >= -1.0)
    assert np.all(out <= 1.0)


# --- noise shaping ----------------------------------------------------------

def test_noise_shape_zero_input_dithers_midscale():
    codes = noise_shape(np.zeros(512))
    assert set(codes.tolist()) == {63, 64}
    assert abs(codes.mean() - 63.5) <= 0.5


def test_noise_shape_rails():
    assert np.all(noise_shape(np.ones(64)) == 127)
    assert np.all(noise_shape(-np.ones(64)) == 0)


def test_noise_shape_codes_in_range():
    codes = noise_shape(sine(1000, 0.95, 8192))
    assert codes.dtype == np.uint8
    assert codes.max() <= 127


@settings(max_examples=12, deadline=None)
@given(st.floats(min_value=100.0, max_value=10000.0))
def test_noise_shaping_law(freq):
    """Shaped in-band noise beats plain rounding for any audio-band sine."""
    n = 16384
    rate = 352800
    x = 0.5 * np.sin(2 * np.pi * freq * np.arange(n) / rate)
    shaped = noise_shape(x)
    plain = oracles.round_half_up_quantize(x, 7)

    nfft = n
    exclude = [freq]
    p_shaped = oracles.power_spectrum(
        oracles.dequantize(shaped, 7) - x, nfft)
    p_plain = oracles.power_spectrum(oracles.dequantize(plain, 7) - x, nfft)
    n_shaped = oracles.band_noise_power(p_shaped, rate, nfft, 100, 20000,
                                        exclude)
    n_plain = oracles.band_noise_power(p_plain, rate, nfft, 100, 20000,
                                       exclude)
    assert n_shaped < n_plain


# --- waveform generation ------------------------------------------------------

def test_generate_pwm_midscale():
    pwm = generate_pwm(np.array([64]), 352800)
    assert pwm.bits.tolist() == [1] * 64 + [0] * 64


def test_generate_pwm_rails():
    pwm = generate_pwm(np.array([0, 127]), 352800)
    assert pwm.bits[:128].tolist() == [0] * 128
    assert pwm.bits[128:].tolist() == [1] * 127 + [0]


def test_generate_pwm_clock():
    pwm = generate_pwm(np.array([1, 2, 3], dtype=np.uint8), 352800)
    assert pwm.clock_hz == 45158400
    assert pwm.frame_bits == 128


def test_generate_pwm_rejects_out_of_range():
    with pytest.raises(IndexError):
        generate_pwm(np.array([128]), 352800)


@pytest.mark.parametrize("codes", [[-1], [5, -128, 7], [-129]])
def test_generate_pwm_rejects_negative_codes(codes):
    """take wraps a negative index to the other end of the frame table;
    a negative code is as far out of range as 128."""
    with pytest.raises(IndexError, match="out of bounds"):
        generate_pwm(np.array(codes), 352800)


@pytest.mark.parametrize("codes,got", [
    (np.array([1.0, 2.0]), r"float64 of shape \(2,\)"),
    (np.array([np.nan]), r"float64 of shape \(1,\)"),
    (np.ones((2, 2), np.uint8), r"uint8 of shape \(2, 2\)")])
def test_generate_pwm_refuses_codes_not_1d_integers(codes, got):
    """Codes are a 1-D integer array: float codes are named, not refused
    by numpy's casting TypeError, and rows are not read as codes."""
    with pytest.raises(ValueError, match=f"^codes must be a 1-D bool or "
                                         f"integer array, got {got}$"):
        generate_pwm(codes, 352800)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2 ** QUANTIZER_BITS - 1), max_size=300))
@example(list(range(2 ** QUANTIZER_BITS)))
def test_generate_pwm_packed_equals_unpacked(codes):
    pwm = generate_pwm(np.array(codes, dtype=np.uint8), 352800)
    expected = oracles.leading_edge_bits(codes, QUANTIZER_BITS)
    assert len(pwm) == len(expected) == FRAME_BITS * len(codes)
    assert np.array_equal(pwm.payload, np.packbits(expected, bitorder="little"))


# --- full chain ---------------------------------------------------------------

def test_convert_zero_input_duty():
    pcm = PcmStream(np.zeros(1000, dtype=np.int16), 44100)
    pwm = convert(pcm)
    assert pwm.frame_count == 8000
    duty = pwm.bits.astype(np.float64).mean()
    assert abs(duty - 0.5) <= 1.0 / 128


def test_convert_length_law():
    for n in (16, 250, 2000):
        pcm = PcmStream(np.zeros(n, dtype=np.int16), 44100)
        assert convert(pcm).frame_count == 8 * n


def test_convert_deterministic():
    rng = np.random.default_rng(7)
    pcm = PcmStream(rng.integers(-2000, 2000, 500).astype(np.int16), 44100)
    a = convert(pcm)
    b = convert(pcm)
    assert a == b


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=-0.9, max_value=0.9))
def test_dc_duty_law(level):
    pcm = PcmStream(np.full(512, round(level * 32767), dtype=np.int16), 44100)
    pwm = convert(pcm)
    # drop the interpolator rise (about 450 frames at the output rate)
    duty = pwm.bits[pwm.frame_bits * 1024:].astype(np.float64).mean()
    expect = (level * 32767 / 32768 + 1.0) / 2.0
    assert abs(duty - expect) <= 1.0 / 128


# --- streaming ----------------------------------------------------------------

def _one_shot_codes(samples):
    """MOLD codes of one whole-array call of each stage, no state carried."""
    x = s0_condition(samples)
    for i in range(INTERP_STAGES):
        x = upsample2(x, behavior=f"S{i + 1}")
    return noise_shape(linearize(x))


def _split(x, cuts):
    return np.split(x, sorted(c % (len(x) + 1) for c in cuts))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=700),
       st.lists(st.integers(0, 10 ** 6), max_size=40), st.booleans())
def test_stream_cuts_match_one_shot(samples, cuts, ones):
    """Any cut of the input, down to 1-sample blocks, gives the payload and
    the MOLD codes of one whole-array pass."""
    x = np.array(samples, dtype=np.int16)
    blocks = [x[i:i + 1] for i in range(len(x))] if ones else _split(x, cuts)
    payload = np.concatenate(list(convert_stream(blocks, 44100)))
    codes = _one_shot_codes(x)
    assert np.array_equal(payload, generate_pwm(codes, 352800).payload)
    assert np.array_equal(
        np.unpackbits(payload).reshape(-1, FRAME_BITS).sum(axis=1), codes)


def test_convert_is_one_shot_across_blocks():
    """convert cuts a long stream into blocks; the bits stay those of one
    whole-array pass, also when the caller's blocks are cut elsewhere."""
    x = np.random.default_rng(3).integers(-30000, 30000, 9000).astype(np.int16)
    expected = generate_pwm(_one_shot_codes(x), 352800)
    assert convert(PcmStream(x, 44100)) == expected
    payload = np.concatenate(list(convert_stream(_split(x, [5, 4200, 4201]),
                                                 44100)))
    assert np.array_equal(payload, expected.payload)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1.2, 1.2), min_size=1, max_size=400),
       st.lists(st.integers(0, 10 ** 6), max_size=30))
@example(samples=[0.25] * 70, cuts=[1])
@example(samples=np.linspace(-0.5, 0.5, 10).tolist(), cuts=[5])
def test_stage_states_carry_across_blocks(samples, cuts):
    """Each stateful stage, block by block with its state, equals its one
    whole-array call, over any cut down to a 1-sample first block; LINE
    takes the non-empty pieces, then one empty block to end the stream."""
    x = np.array(samples)
    blocks = _split(x, cuts)
    pieces = [b for b in blocks if len(b)]
    line, mold = LineState(), MoldState()
    lined = [linearize(b, line) for b in pieces + [x[:0]]]
    assert np.array_equal(np.concatenate(lined), linearize(x))
    codes = np.concatenate([noise_shape(b, mold) for b in blocks])
    assert np.array_equal(codes, noise_shape(x))

    fir = FirState()
    up = [upsample2(b, state=fir) for b in pieces]
    assert np.array_equal(np.concatenate(up), upsample2(x))


@pytest.mark.parametrize("after", [0, 1, 6])
def test_linearize_refuses_a_block_after_the_end(after):
    """The empty block ends LINE's stream: any block after it, empty or
    not, raises instead of emitting the held last sample again."""
    x = np.linspace(-0.5, 0.5, 6)
    state = LineState()
    lined = np.concatenate([linearize(x, state), linearize(x[:0], state)])
    assert np.array_equal(lined, linearize(x))
    with pytest.raises(ValueError, match="after the empty block"):
        linearize(x[:after], state)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300), st.integers(1, 130),
       st.integers(0, 300))
def test_convolve_head_ignores_what_follows(seed, n_x, n_h, n_z):
    """The first len(x) outputs of chain._convolve(x, h) are those of a
    convolution over x and any continuation z that reaches len(h), byte
    for byte: the operands never swap, so the sums run in one order."""
    rng = np.random.default_rng(seed)
    x, h = rng.standard_normal(n_x), rng.standard_normal(n_h)
    z = rng.standard_normal(max(n_z, n_h - n_x))
    head = chain._convolve(x, h)[:n_x]
    assert head.tobytes() == np.convolve(np.concatenate((x, z)), h)[:n_x].tobytes()


def test_convert_stream_rejects_empty():
    for blocks in ([], [np.zeros(0, dtype=np.int16)]):
        with pytest.raises(ValueError, match="empty"):
            next(convert_stream(blocks, 44100))


def test_convert_stream_refuses_int32_blocks():
    """Blocks are int16, as S0 takes them; an int32 block is refused, not
    cast."""
    with pytest.raises(ValueError, match="int32"):
        next(convert_stream([np.zeros(8, dtype=np.int32)], 44100))


@pytest.mark.parametrize("rate", [44100.0, 0, -1, "44100", True])
def test_convert_stream_checks_its_rate_first(rate):
    """A rate that is no positive integer raises on the first step, before
    any block is read."""
    def blocks():
        raise AssertionError("a block was read")
        yield
    with pytest.raises(ValueError, match="sample_rate"):
        next(convert_stream(blocks(), rate))
