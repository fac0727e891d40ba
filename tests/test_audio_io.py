import struct
import wave

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pcm2pwm import audio_io
from pcm2pwm.audio_io import (PWM_MAX_BITS, PWM_MAX_CLOCK_HZ, ClockTooHigh,
                              IoFailure, MalformedHeader, MalformedStream,
                              PcmStream, PwmBitstream, StreamTooLong,
                              UnsupportedFormat, WavReader, read_pwm, read_wav,
                              write_pwm, write_pwm_blocks)
from pcm2pwm.verification import demodulate_stream

from conftest import write_wav


def test_read_minimal_wav(wav_file):
    path = wav_file(np.zeros(4, dtype=np.int16))
    pcm = read_wav(path)
    assert len(pcm) == 4
    assert pcm.sample_rate == 44100
    assert np.array_equal(pcm.samples, np.zeros(4, dtype=np.int16))


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.wav"
    good = write_wav(tmp_path / "good.wav", np.zeros(4, dtype=np.int16))
    data = bytearray(good.read_bytes())
    data[0:4] = b"RIFX"
    path.write_bytes(data)
    with pytest.raises(MalformedHeader):
        read_wav(path)


def test_read_4_3_second_file(wav_file):
    # 4.3 s at 44100 Hz
    n = int(4.3 * 44100)
    assert n == 189630
    pcm = read_wav(wav_file(np.zeros(n, dtype=np.int16)))
    assert len(pcm) == 189630
    assert len(pcm) / pcm.sample_rate == pytest.approx(4.3)


def test_stereo_downmix_rounds_toward_zero(wav_file):
    interleaved = np.array([3, 0, -3, 0, 100, 101, -32768, -32768],
                           dtype=np.int16)
    pcm = read_wav(wav_file(interleaved, channels=2))
    assert pcm.samples.tolist() == [1, -1, 100, -32768]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda channels: st.tuples(
    st.just(channels),
    st.lists(st.lists(st.integers(-32768, 32767), min_size=channels,
                      max_size=channels), max_size=64))))
def test_downmix_is_truncated_mean(channels_frames):
    import tempfile
    channels, frames = channels_frames
    interleaved = np.array([v for f in frames for v in f], dtype=np.int16)
    with tempfile.TemporaryDirectory() as d:
        pcm = read_wav(write_wav(f"{d}/x.wav", interleaved, channels=channels))
    assert pcm.samples.dtype == np.int16
    assert pcm.samples.tolist() == _truncated_means(frames, channels)


def _truncated_means(frames, channels):
    """Mean of each frame rounded toward zero, in exact integer arithmetic."""
    return [(abs(sum(f)) // channels) * (1 if sum(f) >= 0 else -1)
            for f in frames]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8).flatmap(lambda channels: st.tuples(
    st.just(channels),
    st.lists(st.lists(st.integers(-32768, 32767), min_size=channels,
                      max_size=channels), max_size=64))),
    st.integers(1, 9))
def test_downmix_per_block(channels_frames, block):
    """The incremental reader downmixes block by block, at most _BLOCK
    frames at a time, to the same truncated means."""
    import tempfile
    from unittest import mock
    channels, frames = channels_frames
    interleaved = np.array([v for f in frames for v in f], dtype=np.int16)
    with tempfile.TemporaryDirectory() as d, \
            mock.patch.object(audio_io, "_BLOCK", block):
        path = write_wav(f"{d}/x.wav", interleaved, channels=channels)
        with WavReader(path) as wav:
            assert (wav.sample_rate, wav.frame_count) == (44100, len(frames))
            blocks = list(wav.blocks())
    assert all(0 < len(b) <= block and b.dtype == np.int16 for b in blocks)
    joined = [v for b in blocks for v in b.tolist()]
    assert joined == _truncated_means(frames, channels)


def test_wav_reader_checks_structure_before_samples(tmp_path):
    """A chunk that overruns the file fails on opening, before any sample;
    a data chunk that shrinks after opening fails while reading."""
    good = write_wav(tmp_path / "good.wav", np.arange(5000, dtype=np.int16))
    data = good.read_bytes()
    (tmp_path / "cut.wav").write_bytes(data[:-2])
    with pytest.raises(MalformedHeader, match="truncated chunk"):
        WavReader(tmp_path / "cut.wav")
    with WavReader(good) as wav:
        assert wav.frame_count == 5000
        good.write_bytes(data[:-2])
        with pytest.raises(MalformedHeader, match="shrank"):
            list(wav.blocks())


def test_rejects_non_pcm_format(tmp_path):
    good = write_wav(tmp_path / "good.wav", np.zeros(4, dtype=np.int16))
    data = bytearray(good.read_bytes())
    fmt_at = data.find(b"fmt ") + 8
    struct.pack_into("<H", data, fmt_at, 3)  # IEEE float
    bad = tmp_path / "float.wav"
    bad.write_bytes(data)
    with pytest.raises(UnsupportedFormat):
        read_wav(bad)


def _bad_form_type(data):
    data[8:12] = b"WAVX"


def _no_fmt_chunk(data):
    at = data.find(b"fmt ")
    data[at:at + 4] = b"junk"  # an unknown chunk, skipped


def _zero_sample_rate(data):
    struct.pack_into("<I", data, data.find(b"fmt ") + 12, 0)


def _short_fmt_chunk(data):
    struct.pack_into("<I", data, data.find(b"fmt ") + 4, 14)


def _no_data_chunk(data):
    at = data.find(b"data")
    data[at:at + 4] = b"junk"  # an unknown chunk, skipped


@pytest.mark.parametrize("edit,match", [
    (_bad_form_type, "bad WAVE form type"),
    (_no_fmt_chunk, "missing fmt chunk"),
    (_zero_sample_rate, "non-positive sample rate"),
    (_short_fmt_chunk, "fmt chunk shorter than 16 bytes"),
    (_no_data_chunk, "missing data chunk"),
])
def test_read_rejects_malformed_header(edit, match, tmp_path):
    good = write_wav(tmp_path / "good.wav", np.zeros(4, dtype=np.int16))
    data = bytearray(good.read_bytes())
    edit(data)
    bad = tmp_path / "bad.wav"
    bad.write_bytes(data)
    with pytest.raises(MalformedHeader, match=match):
        read_wav(bad)


def _write_8bit(path):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(1)
        wf.setframerate(44100)
        wf.writeframes(bytes([128] * 4))
    return path


def test_rejects_8bit(tmp_path):
    with pytest.raises(UnsupportedFormat):
        read_wav(_write_8bit(tmp_path / "8bit.wav"))


def test_truncated_chunk_rejected(tmp_path):
    good = write_wav(tmp_path / "good.wav", np.zeros(64, dtype=np.int16))
    data = good.read_bytes()
    bad = tmp_path / "trunc.wav"
    bad.write_bytes(data[:len(data) - 10])
    with pytest.raises(MalformedHeader):
        read_wav(bad)


def test_missing_file_is_io_failure(tmp_path):
    for reader in (read_wav, read_pwm):
        # the OS reason only: it would repeat the path
        with pytest.raises(IoFailure, match="^cannot read .*nope: "
                                            "No such file or directory$"):
            reader(tmp_path / "nope")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-32768, 32767), min_size=0, max_size=512),
       st.sampled_from([8000, 22050, 44100, 48000]))
def test_wav_roundtrip_identity(samples, rate):
    import tempfile
    arr = np.array(samples, dtype=np.int16)
    with tempfile.TemporaryDirectory() as d:
        path = write_wav(f"{d}/x.wav", arr, rate=rate)
        pcm = read_wav(path)
    assert pcm.sample_rate == rate
    assert np.array_equal(pcm.samples, arr)


@pytest.mark.parametrize("rate,valid", [(1, True), (0, False)])
def test_pcm_sample_rate_must_be_positive(rate, valid):
    if valid:
        assert PcmStream(np.zeros(4, np.int16), rate).sample_rate == rate
    else:
        with pytest.raises(ValueError, match="sample_rate"):
            PcmStream(np.zeros(4, np.int16), rate)


@pytest.mark.parametrize("rate", [44100.0, 1.5, "44100", None, True])
def test_pcm_sample_rate_must_be_an_integer(rate):
    """A rate that is no integer is refused on construction, not by a
    TypeError in the chain's shifts; numpy integers are integers."""
    with pytest.raises(ValueError, match="sample_rate must be an integer"):
        PcmStream(np.zeros(4, np.int16), rate)
    assert PcmStream(np.zeros(4, np.int16), np.int64(8000)).sample_rate == 8000


@pytest.mark.parametrize("samples,error", [
    (np.array([0.7, -0.9, 1.5, 32766.9]),
     r"^samples must be a 1-D integer array, got float64 of shape \(4,\)$"),
    (np.array([0.0, np.nan]), r"integer array, got float64 of shape \(2,\)"),
    (np.array([True, False]), r"integer array, got bool of shape \(2,\)"),
    (np.array([-32768, 0, 32767], dtype=np.int64), None),
    (np.array([0, 32767], dtype=np.uint16), None),
    (np.array([0, 32768], dtype=np.int64), "out of 16-bit range"),
    (np.array([-32769, 0], dtype=np.int32), "out of 16-bit range"),
    (np.zeros((2, 300), dtype=np.int16),
     r"1-D integer array, got int16 of shape \(2, 300\)"),
    (np.int16(5), "1-D integer array, got int16$"),
], ids=["samples0-integers", "samples1-integers", "samples2-integers",
        "samples3-None", "samples4-None", "samples5-out of 16-bit range",
        "samples6-out of 16-bit range", "samples7-one-dimensional",
        "samples8-one-dimensional"])
def test_pcm_samples_must_be_16_bit_integers(samples, error):
    """One-dimensional samples of any integer dtype within the int16 range
    convert; others raise rather than being truncated, wrapped, cast or
    read along their first axis."""
    if error is None:
        pcm = PcmStream(samples, 44100)
        assert pcm.samples.dtype == np.int16
        assert pcm.samples.tolist() == samples.tolist()
    else:
        with pytest.raises(ValueError, match=error):
            PcmStream(samples, 44100)


class _Reader:
    """A reader that declares frame_count samples and whose blocks hold
    `held`, three at a time."""

    sample_rate = 44100

    def __init__(self, frame_count, held):
        self.frame_count, self._held = frame_count, held

    def blocks(self):
        for start in range(0, self._held, 3):
            yield np.arange(start, min(start + 3, self._held), dtype=np.int16)


@pytest.mark.parametrize("held,error", [
    (10, None), (9, "hold 9 elements, 10 declared"),
    (11, "more than the 10 elements declared")])
def test_collect_counts_blocks_against_the_declared_length(held, error):
    """collect fills exactly the declared length: a reader whose blocks
    fall short of its frame_count or run past it raises, rather than
    leaving uninitialized samples or failing in a numpy broadcast."""
    reader = _Reader(10, held)
    if error is None:
        samples = audio_io.collect(reader.blocks(), reader.frame_count,
                                   np.int16)
        assert samples.dtype == np.int16
        assert samples.tolist() == list(range(10))
    else:
        with pytest.raises(ValueError, match=error):
            audio_io.collect(reader.blocks(), reader.frame_count, np.int16)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=12), st.integers(1, 16))
def test_cut_is_bounded_and_in_order(sizes, size):
    """_cut, the one cut at a pipeline's entry, passes every element on in
    order, in non-empty blocks of at most `size`."""
    x = np.arange(sum(sizes))
    blocks = np.split(x, np.cumsum(sizes)[:-1]) if sizes else []
    pieces = list(audio_io._cut(blocks, size))
    assert np.array_equal(np.concatenate([x[:0], *pieces]), x)
    assert all(0 < len(p) <= size for p in pieces)


# --- PWM1 container ---------------------------------------------------------

def test_pwm_roundtrip_basic(tmp_path):
    bits = np.tile([1, 0], 64).astype(np.uint8)
    stream = PwmBitstream.from_bits(bits, clock_hz=45158400, frame_bits=128)
    path = tmp_path / "x.pwm"
    write_pwm(stream, path)
    assert path.stat().st_size == 16 + 16  # header + 128 bits packed
    back = read_pwm(path)
    assert back == stream


def test_pwm_empty_stream(tmp_path):
    stream = PwmBitstream.from_bits(np.zeros(0, dtype=np.uint8),
                                    clock_hz=45158400, frame_bits=128)
    path = tmp_path / "empty.pwm"
    write_pwm(stream, path)
    assert path.stat().st_size == 16
    back = read_pwm(path)
    assert len(back) == 0
    assert back == stream


def test_pwm_truncated_payload_rejected(tmp_path):
    path = tmp_path / "trunc.pwm"
    for frame_bits, n_bits, n_bytes in (
            (128, 256, 13),  # 256 bits declared, 100 bits (13 bytes) present
            (1, 3, 0)):  # pad bits declared, no payload byte holds them
        header = struct.pack("<4sIII", b"PWM1", 45158400, frame_bits, n_bits)
        path.write_bytes(header + bytes(n_bytes))
        with pytest.raises(MalformedHeader,
                           match=f"payload bytes, got {n_bytes}$") as err:
            read_pwm(path)
        assert "shape" not in str(err.value)


def test_pwm_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.pwm"
    path.write_bytes(struct.pack("<4sIII", b"PWM0", 100, 4, 0))
    with pytest.raises(MalformedHeader):
        read_pwm(path)


def test_pwm_header_layout_bit_exact(tmp_path):
    # documented hex example: bits 11001111 at 100 Hz, frame size 4
    bits = np.array([1, 1, 0, 0, 1, 1, 1, 1], dtype=np.uint8)
    path = tmp_path / "doc.pwm"
    write_pwm(PwmBitstream.from_bits(bits, clock_hz=100, frame_bits=4), path)
    assert path.read_bytes() == bytes.fromhex(
        "50574d31" "64000000" "04000000" "08000000" "f3")


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 50), st.randoms(use_true_random=False))
def test_pwm_roundtrip_property(quant_bits, n_frames, rnd):
    import tempfile
    frame_bits = 2 ** quant_bits
    bits = np.array([rnd.randint(0, 1) for _ in range(frame_bits * n_frames)],
                    dtype=np.uint8)
    stream = PwmBitstream.from_bits(bits, clock_hz=frame_bits * 352800,
                                    frame_bits=frame_bits)
    with tempfile.TemporaryDirectory() as d:
        write_pwm(stream, f"{d}/x.pwm")
        back = read_pwm(f"{d}/x.pwm")
    assert back == stream


def test_pwm_over_u32_bits_rejected(tmp_path):
    # zero-stride payload: 2^32 bits without allocating them
    payload = np.broadcast_to(np.uint8(0), (2 ** 29,))
    stream = PwmBitstream(payload=payload, n_bits=2 ** 32, clock_hz=45158400,
                          frame_bits=128)
    assert len(stream) == PWM_MAX_BITS + 1
    path = tmp_path / "long.pwm"
    with pytest.raises(StreamTooLong):
        write_pwm(stream, path)
    assert not path.exists()


@pytest.mark.parametrize("clock_hz,fits", [(PWM_MAX_CLOCK_HZ, True),
                                           (PWM_MAX_CLOCK_HZ + 1, False)])
def test_pwm_clock_field_limit(clock_hz, fits, tmp_path):
    stream = PwmBitstream.from_bits(np.ones(8, dtype=np.uint8),
                                    clock_hz=clock_hz, frame_bits=8)
    path = tmp_path / "clock.pwm"
    if fits:
        write_pwm(stream, path)
        assert read_pwm(path) == stream
    else:
        with pytest.raises(ClockTooHigh):
            write_pwm(stream, path)
        assert not path.exists()


@pytest.mark.parametrize("frame_bits,fits", [(2 ** 32 - 1, True),
                                            (2 ** 32, False), (0, False)])
def test_pwm_frame_field_limit(frame_bits, fits, tmp_path):
    """frame_bits is a PWM1 u32 field.  An empty stream is a whole number
    of frames of any size, so the stream itself refuses what the field
    cannot hold, before write_pwm packs the header."""
    fields = dict(payload=np.zeros(0, np.uint8), n_bits=0, clock_hz=1,
                  frame_bits=frame_bits)
    if fits:
        path = tmp_path / "frame.pwm"
        write_pwm(PwmBitstream(**fields), path)
        assert read_pwm(path) == PwmBitstream(**fields)
    else:
        with pytest.raises(ValueError, match="frame_bits"):
            PwmBitstream(**fields)


@pytest.mark.parametrize("n_bits,clock_hz,match", [
    (-128, 1, "^n_bits must be an integer of at least 0, got -128$"),
    (0, -1, "^clock_hz must be an integer of at least 0, got -1$")],
    ids=["-128-1-bit count -128 is negative",
         "0--1-bit clock -1 Hz is negative"])
def test_pwm_header_rejects_negative_fields(n_bits, clock_hz, match,
                                            tmp_path):
    """A negative bit count or clock is a ValueError before a block is read
    or the file touched, not a struct.error from packing the header; the
    in-memory stream refuses it with the same message."""
    def unread():
        raise AssertionError("a block was read")
        yield
    path = tmp_path / "out.pwm"
    path.write_bytes(b"previous")
    with pytest.raises(ValueError, match=match):
        write_pwm_blocks(unread(), path, n_bits=n_bits, clock_hz=clock_hz,
                         frame_bits=128)
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["out.pwm"]
    with pytest.raises(ValueError, match=match):
        PwmBitstream(payload=np.zeros(0, np.uint8), n_bits=n_bits,
                     clock_hz=clock_hz, frame_bits=128)


@pytest.mark.parametrize("value", [8.0, 1.5, "8", None])
@pytest.mark.parametrize("field", ["n_bits", "clock_hz", "frame_bits"])
def test_pwm_header_fields_must_be_integers(field, value, tmp_path):
    """A header field that is no integer is a MalformedStream naming it,
    from write_pwm_blocks before a block is read or the file touched and
    from the in-memory stream, not a struct.error or a later TypeError."""
    def unread():
        raise AssertionError("a block was read")
        yield
    fields = {"n_bits": 8, "clock_hz": 8, "frame_bits": 8, field: value}
    path = tmp_path / "out.pwm"
    with pytest.raises(MalformedStream, match=f"{field} must be an integer"):
        write_pwm_blocks(unread(), path, **fields)
    assert not path.exists()
    with pytest.raises(MalformedStream, match=f"{field} must be an integer"):
        PwmBitstream(payload=np.zeros(1, np.uint8), **fields)
    fields[field] = np.uint32(8)  # numpy integers are integers
    assert len(PwmBitstream(payload=np.zeros(1, np.uint8), **fields)) == 8


def test_pwm_stream_takes_a_zero_clock():
    """A zero clock is a legal PWM1 header field, so a legal stream."""
    assert PwmBitstream(payload=np.zeros(1, np.uint8), n_bits=8, clock_hz=0,
                        frame_bits=8).clock_hz == 0


def test_pwm_blocks_written_in_order(tmp_path):
    stream = PwmBitstream.from_bits(np.tile([1, 1, 0], 64), clock_hz=300,
                                    frame_bits=24)
    path = tmp_path / "blocks.pwm"
    write_pwm_blocks((stream.payload[i:i + 5] for i in range(0, 24, 5)), path,
                     n_bits=192, clock_hz=300, frame_bits=24)
    assert read_pwm(path) == stream


@pytest.mark.parametrize("n_blocks", [0, 1, 3])
def test_pwm_blocks_short_or_long_keep_old_file(n_blocks, tmp_path):
    """Blocks that do not hold the declared payload raise MalformedStream;
    the file that was there stays, and nothing else is left beside it."""
    path = tmp_path / "out.pwm"
    path.write_bytes(b"previous")
    with pytest.raises(MalformedStream, match=f"^256 bits need 32 payload "
                       f"bytes, got {16 * n_blocks}$"):
        write_pwm_blocks([np.zeros(16, np.uint8)] * n_blocks, path,
                         n_bits=256, clock_hz=100, frame_bits=128)
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["out.pwm"]


@pytest.mark.parametrize("bits,error", [
    (np.array([256, 1, 0.5, 2, 1, 1, 1, 1]),
     r"^bits must be a 1-D bool or integer array, got float64 of shape "
     r"\(8,\)$"),
    (np.array([1, 256, 0, 2, 1, 1, 1, 1]), "0 or 1, got 256"),
    (np.array([0, 1, 2, 1, 0, 0, 0, -1]), "0 or 1, got 2"),
    (np.array([0, 0, 0, 0, 0, 0, 0, -1], np.int8), "0 or 1, got -1"),
    (np.ones((2, 8), np.uint8),
     r"1-D bool or integer array, got uint8 of shape \(2, 8\)$")],
    ids=["bits0-integers, got float64", "bits1-0 or 1, got 256",
         "bits2-0 or 1, got 2", "bits3-0 or 1, got -1",
         r"bits4-one-dimensional, got shape \(2, 8\)"])
def test_pwm_from_bits_refuses_values_other_than_0_and_1(bits, error):
    """A bit is 0 or 1: 256 is not read as 0 after a uint8 wrap, 0.5 is
    not truncated and 2 is not packed as 1; bits are a 1-D array, whose
    row count is not read as the bit count."""
    with pytest.raises(MalformedStream, match=error):
        PwmBitstream.from_bits(bits, clock_hz=8, frame_bits=8)


def test_pwm_from_bits_takes_integer_and_bool_bits():
    for bits in (np.tile([1, 1, 0], 8), np.tile([True, True, False], 8)):
        stream = PwmBitstream.from_bits(bits, clock_hz=8, frame_bits=8)
        assert stream.bits.tolist() == [1, 1, 0] * 8


# block kinds a payload case draws: most are the 1-D uint8 the rule takes
_BLOCK_KINDS = {
    "uint8": lambda b: b,
    "strided": lambda b: np.repeat(b, 2)[::2],  # 1-D uint8, not contiguous
    "int64": lambda b: b.astype(np.int64),
    "float64": lambda b: b.astype(np.float64),
    "bool": lambda b: b.astype(bool),
    "2-D": lambda b: b.reshape(1, -1),
    "0-d": lambda b: np.zeros((), np.uint8),
    "bytes": lambda b: b.tobytes(),
    "list": lambda b: b.tolist(),
}


@st.composite
def payload_cases(draw):
    """(n_bits, kinds, blocks): blocks whose bytes fall short of, match or
    run past the ceil(n_bits / 8) n_bits need, with any pad bits; n_bits
    is a whole number of 128-bit frames a third of the time."""
    whole = st.integers(0, 16).map(lambda k: 128 * k)
    n_bits = draw(draw(st.sampled_from([st.integers(0, 2048)] * 6
                                       + [whole] * 3
                                       + [st.integers(-16, -1)])))
    need = max(-(-n_bits // 8), 0)
    total = max(need + draw(st.sampled_from([-9, -1, 0, 0, 0, 1, 7])), 0)
    data = np.frombuffer(draw(st.binary(min_size=total, max_size=total)),
                         np.uint8).copy()
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=4)))
    pieces = [] if total == 0 and draw(st.booleans()) else np.split(data, cuts)
    kinds = [draw(st.sampled_from(["uint8"] * 8 + list(_BLOCK_KINDS)))
             for _ in pieces]
    return n_bits, kinds, [_BLOCK_KINDS[k](b) for k, b in zip(kinds, pieces)]


def _refusal(call):
    """The MalformedStream message call raises, or None if it returns."""
    try:
        call()
    except MalformedStream as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=payload_cases())
def test_payload_rule_is_one_contract(case, tmp_path):
    """The writer, the demodulator and the container take the same payload
    blocks: 1-D uint8 arrays of ceil(n_bits / 8) bytes in all, for an
    n_bits >= 0, with zero pad bits.  All three accept a payload or all
    three refuse it with the same MalformedStream message, and a refused
    write keeps the old file.  The demodulator takes the chain's 128-bit
    frames: any other n_bits >= 0 it refuses by the frame rule first, as
    the writer and the container do given those frames."""
    n_bits, kinds, blocks = case
    clock_hz = 1024 * 44100
    path = tmp_path / "out.pwm"
    path.write_bytes(b"previous")
    refusals = {
        _refusal(lambda: write_pwm_blocks(iter(blocks), path, n_bits=n_bits,
                                          clock_hz=clock_hz, frame_bits=1))}
    demodulator = _refusal(lambda: list(demodulate_stream(
        iter(blocks), n_bits=n_bits, clock_hz=clock_hz)))
    if n_bits >= 0 and n_bits % 128:
        assert demodulator == "bit count must be a multiple of frame_bits"
    else:
        refusals.add(demodulator)
    if len(blocks) == 1:
        refusals.add(_refusal(lambda: PwmBitstream(
            payload=blocks[0], n_bits=n_bits, clock_hz=clock_hz,
            frame_bits=1)))
    assert len(refusals) == 1, refusals
    refusal, = refusals
    valid = (n_bits >= 0 and set(kinds) <= {"uint8", "strided"}
             and sum(len(b) for b in blocks) == -(-n_bits // 8)
             and not (n_bits % 8 and np.concatenate(blocks)[-1] >> n_bits % 8))
    assert (refusal is None) == valid, refusal
    if valid:
        assert path.read_bytes()[16:] == b"".join(b.tobytes() for b in blocks)
    else:
        assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["out.pwm"]


def test_pwm_invariant_multiple_of_frame():
    with pytest.raises(ValueError):
        PwmBitstream.from_bits(np.zeros(100, dtype=np.uint8), clock_hz=1000,
                               frame_bits=128)


def test_pwm_payload_invariants():
    ones = np.array([0xFF], dtype=np.uint8)
    with pytest.raises(ValueError):  # 12 bits need 2 bytes
        PwmBitstream(payload=ones, n_bits=12, clock_hz=100, frame_bits=4)
    with pytest.raises(ValueError):  # bits 4-7 are pad bits and set
        PwmBitstream(payload=ones, n_bits=4, clock_hz=100, frame_bits=4)
    stream = PwmBitstream(payload=np.array([0x0F], dtype=np.uint8), n_bits=4,
                          clock_hz=100, frame_bits=4)
    assert stream.bits.tolist() == [1, 1, 1, 1]
    assert not stream.bits.flags.writeable


def test_set_pad_bit_is_one_refusal(tmp_path):
    """A set pad bit breaks the payload rule: the container and the writer
    refuse it with one message, the writer keeping the old file, while
    read_pwm still reads such a file with its pad bits cleared.  The
    demodulator takes whole 128-bit frames, which leave no pad bits, so it
    refuses the 4 bits first by the frame rule, as the container does
    given those frames."""
    ones = np.array([0xFF], np.uint8)
    with pytest.raises(MalformedStream) as container:
        PwmBitstream(payload=ones, n_bits=4, clock_hz=1, frame_bits=4)
    path = tmp_path / "out.pwm"
    path.write_bytes(b"previous")
    with pytest.raises(MalformedStream) as writer:
        write_pwm_blocks([ones], path, n_bits=4, clock_hz=1, frame_bits=4)
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["out.pwm"]
    assert (str(container.value) == str(writer.value)
            == "pad bits of the last payload byte must be zero")
    with pytest.raises(MalformedStream) as demodulator:
        list(demodulate_stream([np.zeros(0, np.uint8), ones, ones[:0]],
                               n_bits=4, clock_hz=1024))
    with pytest.raises(MalformedStream) as container:
        PwmBitstream(payload=ones, n_bits=4, clock_hz=1024, frame_bits=128)
    assert (str(demodulator.value) == str(container.value)
            == "bit count must be a multiple of frame_bits")
    path.write_bytes(struct.pack("<4sIII", b"PWM1", 1, 4, 4) + ones.tobytes())
    assert read_pwm(path).payload.tolist() == [0x0F]


@pytest.mark.parametrize("n_bits", [1, 4, 7, 9, 12])
def test_read_pwm_clears_set_pad_bits(n_bits, tmp_path):
    bits = np.ones(n_bits, dtype=np.uint8)
    stream = PwmBitstream.from_bits(bits, clock_hz=100, frame_bits=1)
    path = tmp_path / "pad.pwm"
    n_bytes = (n_bits + 7) // 8
    path.write_bytes(struct.pack("<4sIII", b"PWM1", 100, 1, n_bits)
                     + b"\xff" * n_bytes)
    back = read_pwm(path)
    assert back == stream
    assert back.bits.tolist() == bits.tolist()
    write_pwm(back, tmp_path / "again.pwm")
    payload = (tmp_path / "again.pwm").read_bytes()[16:]
    assert payload == np.packbits(bits, bitorder="little").tobytes()
    assert payload[-1] >> (n_bits - 8 * (n_bytes - 1)) == 0


# --- fuzzed readers -------------------------------------------------------------
# Whatever the bytes, a reader returns a stream or raises one of the three
# documented errors; anything else escaping fails the test.

DOCUMENTED = (MalformedHeader, UnsupportedFormat, IoFailure)

u16 = st.integers(0, 2 ** 16 - 1)
u32 = st.integers(0, 2 ** 32 - 1)


@st.composite
def riff_files(draw):
    """RIFF/WAVE files with well-formed framing and corrupt contents."""
    channels = draw(st.one_of(st.integers(0, 4), u16))
    fmt = struct.pack("<HHIIHH", draw(st.sampled_from([1, 1, 1, 3, 0xFFFE])),
                      channels, draw(st.one_of(st.just(44100), u32)), draw(u32),
                      draw(st.one_of(st.just(2 * channels % 2 ** 16), u16)),
                      draw(st.sampled_from([16, 16, 16, 8, 24, 0])))
    chunks = [(b"fmt ", fmt), (b"data", draw(st.binary(max_size=64)))]
    chunks += draw(st.lists(st.tuples(
        st.sampled_from([b"data", b"LIST", b"\0\0\0\0"]),
        st.binary(max_size=32)), max_size=2))
    out = b"WAVE"
    for cid, body in draw(st.permutations(chunks)):
        size = len(body)
        fault = draw(st.sampled_from(["none"] * 6 + ["cut", "size"]))
        if fault == "cut":
            body = body[:draw(st.integers(0, len(body)))]
        elif fault == "size":
            size = draw(st.one_of(st.integers(0, 80), u32))
        out += cid + struct.pack("<I", size) + body + b"\0" * (len(body) & 1)
    return b"RIFF" + struct.pack("<I", len(out)) + out


@st.composite
def pwm_files(draw):
    """PWM1 files whose header fields disagree with each other or the payload."""
    bit_count = draw(st.one_of(st.integers(0, 2048), u32))
    frame_bits = draw(st.one_of(st.sampled_from([0, 1, 7, 128]), u32))
    header = struct.pack("<4sIII", draw(st.sampled_from([b"PWM1", b"PWM2"])),
                         draw(u32), frame_bits, bit_count)
    n_bytes = min((bit_count + 7) // 8, 256) + draw(st.integers(-1, 1))
    return header + draw(st.binary(min_size=max(n_bytes, 0),
                                   max_size=max(n_bytes, 0)))


def _read_fuzzed(reader, data):
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/fuzz"
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            reader(path)
        except DOCUMENTED:
            pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=128), riff_files()))
def test_read_wav_fuzzed_raises_only_documented(data):
    _read_fuzzed(read_wav, data)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64), pwm_files()))
def test_read_pwm_fuzzed_raises_only_documented(data):
    _read_fuzzed(read_pwm, data)
