"""WAV input and the packed PWM bitstream container.

Two on-disk formats are handled here, both bit-exactly:

* RIFF/WAVE, PCM format code 1, 16-bit only.  Stereo (or any multi-channel)
  input is downmixed to mono by the per-frame arithmetic mean rounded toward
  zero.  Anything that is not 16-bit integer PCM is rejected rather than
  converted.  WavReader checks the header and then reads the data chunk
  _BLOCK frames at a time; read_wav collects it into one PcmStream.

* The "PWM1" container: a 16-byte header followed by the bit payload.

      offset  size  field
      0       4     magic, ASCII "PWM1"
      4       4     bit-clock frequency in Hz, unsigned little-endian
      8       4     bits per PWM frame, unsigned little-endian
      12      4     payload length in bits, unsigned little-endian
      16      -     payload, bits packed LSB-first into bytes

  The payload length must be a multiple of the frame size and the file must
  contain exactly ceil(bits / 8) payload bytes.  Pad bits of the last byte
  are written as zero and cleared on read.  The u32 fields cap a stream at
  PWM_MAX_BITS bits and its clock at PWM_MAX_CLOCK_HZ; check_pwm_header
  raises StreamTooLong or ClockTooHigh above them.

In memory a PwmBitstream holds this payload as it is on disk, so writing
and reading it is the header plus one buffer copy.  write_pwm_blocks
writes the header from fields known up front, then payload blocks as they
come, and replaces the output file only once all of them are written.
"""

from __future__ import annotations

import io
import itertools
import numbers
import os
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

PWM_MAGIC = b"PWM1"
_HEADER = struct.Struct("<4sIII")
PWM_MAX_BITS = 2 ** 32 - 1  # largest payload length the u32 field holds
PWM_MAX_CLOCK_HZ = 2 ** 32 - 1  # largest bit clock the u32 field holds
# input samples a pipeline stage takes at a time (MOLD 8 x as many S3 ones)
_BLOCK = 1024


class MalformedHeader(Exception):
    """File structure does not match the documented format."""


class UnsupportedFormat(Exception):
    """Structurally valid WAV whose encoding we do not accept."""


class IoFailure(Exception):
    """Underlying OS read/write failed."""


class StreamTooLong(Exception):
    """Bitstream longer than the PWM1 length field can declare."""


class ClockTooHigh(Exception):
    """Bit clock faster than the PWM1 clock field can declare."""


class MalformedStream(ValueError):
    """A PWM stream breaking the PWM1 rules or verification's geometry."""


@dataclass
class PcmStream:
    """Signed 16-bit samples at a fixed rate, mono after downmix.

    samples is a 1-D array (or sequence) of any integer dtype, within the
    int16 range; anything else raises ValueError rather than being
    rounded, truncated or read along its first axis, as does a
    sample_rate that is no integer of at least 1 (a bool is none)."""

    samples: np.ndarray  # int16
    sample_rate: int

    def __post_init__(self):
        arr = _vector("samples", self.samples, (np.integer,))
        if arr.dtype != np.int16:
            if len(arr) and (arr.min() < -32768 or arr.max() > 32767):
                raise ValueError("samples out of 16-bit range")
            arr = arr.astype(np.int16)
        self.samples = arr
        _integer("sample_rate", self.sample_rate, 1)

    def __len__(self):
        return len(self.samples)


def _integer(name: str, value, least: int, error=ValueError) -> None:
    """`error`, naming `value`, unless it is an integer of at least `least`:
    the one rule for every count, rate and header field.  numpy integers
    count; a bool does not."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise error(f"{name} must be an integer of at least {least}, "
                    f"got {value!r}")


def _vector(name: str, x, kinds: tuple, error=ValueError) -> np.ndarray:
    """x as an array, or `error` naming its type (or dtype and shape)
    unless it is one-dimensional and its dtype is a subtype of one of
    `kinds`, numpy scalar types such as np.integer or np.uint8: the one
    rule for every sample, bit and code array."""
    arr = np.asarray(x)
    if arr.ndim != 1 or not issubclass(arr.dtype.type, kinds):
        got = (f"{arr.dtype} of shape {arr.shape}"
               if isinstance(x, np.ndarray) else type(x).__name__)
        names = " or ".join(kind.__name__.rstrip("_") for kind in kinds)
        raise error(f"{name} must be a 1-D {names} array, got {got}")
    return arr


# what S1-S3, LINE, MOLD and measure compute with: real samples
_REAL = (np.bool_, np.integer, np.floating)


def _cut(blocks: Iterable[np.ndarray], size: int) -> Iterator[np.ndarray]:
    """The elements of `blocks`, in order, re-cut into non-empty blocks of
    at most `size`: the one cut at a pipeline's entry."""
    for block in blocks:
        for start in range(0, len(block), size):
            yield block[start:start + size]


def _check_fields(n_bits: int, clock_hz: int, frame_bits: int) -> None:
    """The types, frame rules and signs of a PWM1 header's fields, for
    check_pwm_header and the in-memory stream alike."""
    _integer("n_bits", n_bits, 0, MalformedStream)
    _integer("clock_hz", clock_hz, 0, MalformedStream)
    _integer("frame_bits", frame_bits, 1, MalformedStream)
    if frame_bits >= 2 ** 32:  # a PWM1 u32 field
        raise MalformedStream("frame_bits must be in 1 .. 2^32 - 1")
    if n_bits % frame_bits != 0:
        raise MalformedStream("bit count must be a multiple of frame_bits")


def _payload_blocks(blocks: Iterable, n_bits: int) -> Iterator[np.ndarray]:
    """The blocks of an n_bits-bit payload, passed on as checked: the one
    PWM1 payload rule.  MalformedStream before the first for an n_bits
    that is no integer of at least 0, at one that is no 1-D uint8 array,
    and after the last for a total other than the ceil(n_bits / 8) bytes
    n_bits need or a set pad bit."""
    _integer("n_bits", n_bits, 0, MalformedStream)
    size, last = 0, None  # last: the last non-empty block
    for block in blocks:
        block = _vector("payload block", block, (np.uint8,), MalformedStream)
        size += len(block)
        last = block if len(block) else last
        yield block
    if size != (n_bits + 7) // 8:
        raise MalformedStream(f"{n_bits} bits need {(n_bits + 7) // 8} "
                              f"payload bytes, got {size}")
    if n_bits % 8 and last[-1] >> n_bits % 8:
        raise MalformedStream("pad bits of the last payload byte must be zero")


def check_pwm_header(n_bits: int, clock_hz: int, frame_bits: int) -> None:
    """Check a PWM1 header's fields: a field that is no integer, the frame
    rules and a negative bit count or clock (MalformedStream), the u32
    bit count (StreamTooLong), then the u32 bit clock (ClockTooHigh)."""
    _check_fields(n_bits, clock_hz, frame_bits)
    if n_bits > PWM_MAX_BITS:
        raise StreamTooLong(f"stream too long: {n_bits} bits, the PWM1 bit "
                            f"count field holds at most {PWM_MAX_BITS}")
    if clock_hz > PWM_MAX_CLOCK_HZ:
        raise ClockTooHigh(f"bit clock too high: {clock_hz} Hz, the PWM1 "
                           f"clock field holds at most {PWM_MAX_CLOCK_HZ} Hz")


@dataclass
class PwmBitstream:
    """PWM bits packed LSB-first into bytes with zero pad bits (the PWM1
    payload as it is on disk), plus the frame geometry.  Fields
    check_pwm_header refuses and a payload write_pwm_blocks refuses raise
    MalformedStream; a zero clock is legal, as in PWM1."""

    payload: np.ndarray  # uint8, ceil(n_bits / 8) bytes
    n_bits: int
    clock_hz: int
    frame_bits: int

    def __post_init__(self):
        _check_fields(self.n_bits, self.clock_hz, self.frame_bits)
        list(_payload_blocks([self.payload], self.n_bits))

    @classmethod
    def from_bits(cls, bits, clock_hz: int, frame_bits: int) -> "PwmBitstream":
        """Pack a 1-D array of integer or bool 0/1 bits into a stream;
        MalformedStream names another shape or dtype, or the first value."""
        bits = _vector("bits", bits, (np.bool_, np.integer), MalformedStream)
        bad = bits[(bits != 0) & (bits != 1)]
        if len(bad):
            raise MalformedStream(f"bits must be 0 or 1, got {bad[0]}")
        return cls(payload=np.packbits(bits, bitorder="little"),
                   n_bits=len(bits), clock_hz=clock_hz, frame_bits=frame_bits)

    @property
    def bits(self) -> np.ndarray:
        """Unpacked copy, one uint8 0/1 per bit (8x the payload's memory)."""
        bits = np.unpackbits(self.payload, count=self.n_bits, bitorder="little")
        bits.flags.writeable = False
        return bits

    def __len__(self):
        return self.n_bits

    @property
    def frame_count(self) -> int:
        return self.n_bits // self.frame_bits

    def __eq__(self, other):
        if not isinstance(other, PwmBitstream):
            return NotImplemented
        return (self.n_bits == other.n_bits
                and self.clock_hz == other.clock_hz
                and self.frame_bits == other.frame_bits
                and np.array_equal(self.payload, other.payload))


class WavReader:
    """A 16-bit PCM WAV file open for reading block by block.

    Opening walks every chunk header, checks each against the file size
    and checks the format, so a malformed or unsupported file fails before
    any sample is read.  sample_rate and frame_count (mono samples) come
    from the header; blocks() yields the samples, downmixed to mono, a
    bounded block at a time.  Use it in a with statement, or close() it.

    Raises IoFailure if the file cannot be read, MalformedHeader on bad
    RIFF structure and UnsupportedFormat for non-PCM or non-16-bit content.
    Opening's content errors leave the path to the caller to name (as
    cli._load does); blocks() runs after it, so its errors name the path
    themselves, a data chunk that shrank since opening among them.
    """

    def __init__(self, path):
        self.path = path
        try:
            # unbuffered, so blocks() reads the file as it is then and
            # sees a data chunk that shrank after opening, even in a file
            # small enough for a read buffer to have held it whole
            self._fh = open(path, "rb", buffering=0)
            try:
                if not self._fh.seekable():  # a pipe: hold it in memory
                    with self._fh as pipe:
                        self._fh = io.BytesIO(pipe.read())
                self._parse()
            except BaseException:
                self.close()
                raise
        except OSError as exc:
            raise IoFailure(f"cannot read {path}: "
                            f"{exc.strerror or exc}") from exc

    def _parse(self):
        fh = self._fh
        size = fh.seek(0, os.SEEK_END)
        fh.seek(0)
        head = fh.read(12)
        if len(head) < 12:
            raise MalformedHeader("file shorter than RIFF header")
        if head[0:4] != b"RIFF":
            raise MalformedHeader(f"bad RIFF magic {head[0:4]!r}")
        if head[8:12] != b"WAVE":
            raise MalformedHeader(f"bad WAVE form type {head[8:12]!r}")

        fmt = data = None
        pos = 12
        while pos + 8 <= size:
            fh.seek(pos)
            chunk_id, chunk_size = struct.unpack("<4sI", fh.read(8))
            if pos + 8 + chunk_size > size:
                raise MalformedHeader(f"truncated chunk {chunk_id!r}")
            if chunk_id == b"fmt ":
                if chunk_size < 16:
                    raise MalformedHeader("fmt chunk shorter than 16 bytes")
                fmt = struct.unpack("<HHIIHH", fh.read(16))
            elif chunk_id == b"data":
                data = (pos + 8, chunk_size)
            pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

        if fmt is None:
            raise MalformedHeader("missing fmt chunk")
        if data is None:
            raise MalformedHeader("missing data chunk")

        audio_format, channels, sample_rate, _, block_align, bits = fmt
        if audio_format != 1:
            raise UnsupportedFormat(f"format code {audio_format}, only PCM (1) supported")
        if bits != 16:
            raise UnsupportedFormat(f"{bits}-bit samples, only 16-bit supported")
        if channels < 1:
            raise MalformedHeader("zero channels")
        if sample_rate <= 0:
            raise MalformedHeader("non-positive sample rate")
        if block_align != channels * 2:
            raise MalformedHeader(f"block align {block_align} != channels*2")

        self.channels = channels
        self.sample_rate = int(sample_rate)
        self._data_at = data[0]
        self.frame_count = data[1] // block_align

    def blocks(self) -> Iterator[np.ndarray]:
        """The int16 mono samples, at most _BLOCK at a time.  Each frame is
        the arithmetic mean of its channels, rounded toward zero."""
        align = 2 * self.channels
        try:
            self._fh.seek(self._data_at)
            for start in range(0, self.frame_count, _BLOCK):
                n = min(_BLOCK, self.frame_count - start)
                raw = self._fh.read(n * align)
                if len(raw) != n * align:
                    raise MalformedHeader(f"{self.path}: data chunk shrank "
                                          f"while reading")
                frames = np.frombuffer(raw, dtype="<i2").reshape(
                    n, self.channels).astype(np.int64)
                yield np.trunc(frames.sum(axis=1) / self.channels
                               ).astype(np.int16)
        except OSError as exc:
            raise IoFailure(f"cannot read {self.path}: "
                            f"{exc.strerror or exc}") from exc

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def collect(blocks: Iterable[np.ndarray], n: int, dtype) -> np.ndarray:
    """The blocks' elements, in order, in one preallocated array of n
    `dtype`s.  ValueError for an n that is no integer of at least 0, at a
    block that is no 1-D array of `dtype` (it is not cast), or if they
    hold fewer or more than n elements, the block that would run past n
    raising before it is written."""
    _integer("n", n, 0)
    out = np.empty(n, dtype=dtype)
    pos = 0
    for block in blocks:
        block = _vector("block", block, (out.dtype.type,))
        if pos + len(block) > n:
            raise ValueError(f"blocks hold more than the {n} elements declared")
        out[pos:pos + len(block)] = block
        pos += len(block)
    if pos != n:
        raise ValueError(f"blocks hold {pos} elements, {n} declared")
    return out


def read_wav(path) -> PcmStream:
    """Read a whole 16-bit PCM WAV file, downmixing to mono.

    Raises as WavReader does.
    """
    with WavReader(path) as wav:
        return PcmStream(collect(wav.blocks(), wav.frame_count, np.int16),
                         wav.sample_rate)


def write_pwm(stream: PwmBitstream, path) -> None:
    """Write a PwmBitstream to a PWM1 container file, as write_pwm_blocks
    writes its payload as one block."""
    write_pwm_blocks([stream.payload], path, n_bits=stream.n_bits,
                     clock_hz=stream.clock_hz, frame_bits=stream.frame_bits)


def write_pwm_blocks(blocks: Iterable[np.ndarray], path, *, n_bits: int,
                     clock_hz: int, frame_bits: int) -> None:
    """Write a PWM1 file: the header from the given fields, then the payload
    blocks (1-D uint8 arrays, packed LSB-first) in order.

    Raises as check_pwm_header does, before touching the file or reading
    a block; _write_whole replaces `path` only once the blocks held the
    ceil(n_bits / 8) bytes the header declares, pad bits zero
    (MalformedStream if not, or at a block that is no 1-D uint8 array).
    """
    check_pwm_header(n_bits, clock_hz, frame_bits)
    header = _HEADER.pack(PWM_MAGIC, clock_hz, frame_bits, n_bits)
    payload = (np.ascontiguousarray(block)  # write needs C order
               for block in _payload_blocks(blocks, n_bits))
    _write_whole(path, itertools.chain([header], payload))


def _write_whole(path, chunks: Iterable) -> None:
    """Write the bytes-like chunks to `path`, the one writer of every output
    file: to a file beside it, renamed over it once the last chunk is
    written, so a failure part way, in a write or in making a chunk, leaves
    `path` as it was; a `path` that is a device or other non-regular file
    in place.  IoFailure names `path` and the OS reason."""
    target = os.path.realpath(path)
    tmp = None
    if os.path.isfile(target) or not os.path.exists(target):
        head, name = os.path.split(target)
        tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp or target, "xb" if tmp else "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        if tmp:
            os.replace(tmp, target)
    except OSError as exc:
        # the OS reason only: exc names the temporary file, not path
        raise IoFailure(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp and os.path.exists(tmp):
            os.remove(tmp)


def _read_whole(path, encoding=None):
    """The whole of `path` as bytes, or as text in `encoding` if one is
    given (newlines read as open's text mode reads them): the reader twin
    of _write_whole, and the one reader of every input file but a WAV.
    IoFailure names `path` and the OS reason; text that is no `encoding`
    raises UnicodeDecodeError."""
    try:
        with open(path, "r" if encoding else "rb", encoding=encoding) as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc.strerror or exc}") from exc


def read_pwm(path) -> PwmBitstream:
    """Read a PWM1 container file; inverse of write_pwm, bit-exact.

    Pad bits set in the last payload byte are cleared, so the stream equals
    the one with zero padding and writes back with zero pad bits.  Fields
    that PwmBitstream refuses raise MalformedHeader.
    """
    data = _read_whole(path)
    if len(data) < _HEADER.size:
        raise MalformedHeader("file shorter than PWM1 header")
    magic, clock_hz, frame_bits, bit_count = _HEADER.unpack_from(data, 0)
    if magic != PWM_MAGIC:
        raise MalformedHeader(f"bad magic {magic!r}")
    payload = np.frombuffer(data, dtype=np.uint8, offset=_HEADER.size)
    pad = -bit_count % 8
    if pad and (payload[-1:] >> (8 - pad)).any():
        payload = payload.copy()
        payload[-1] &= 0xFF >> pad
    try:
        return PwmBitstream(payload=payload, n_bits=bit_count,
                            clock_hz=clock_hz, frame_bits=frame_bits)
    except MalformedStream as exc:
        raise MalformedHeader(str(exc)) from exc
