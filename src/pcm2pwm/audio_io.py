"""WAV input and the packed PWM bitstream container.

Two on-disk formats are handled here, both bit-exactly:

* RIFF/WAVE, PCM format code 1, 16-bit only.  Stereo (or any multi-channel)
  input is downmixed to mono by the per-frame arithmetic mean rounded toward
  zero.  Anything that is not 16-bit integer PCM is rejected rather than
  converted.  WavReader checks the header and then reads the data chunk a
  bounded block at a time; read_wav collects it into one PcmStream.

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
import os
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

PWM_MAGIC = b"PWM1"
_HEADER = struct.Struct("<4sIII")
PWM_MAX_BITS = 2 ** 32 - 1  # largest payload length the u32 field holds
PWM_MAX_CLOCK_HZ = 2 ** 32 - 1  # largest bit clock the u32 field holds
_WAV_BLOCK = 4096  # frames WavReader.blocks reads at a time


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


@dataclass
class PcmStream:
    """Signed 16-bit samples at a fixed rate, mono after downmix."""

    samples: np.ndarray  # int16
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples)
        if arr.dtype != np.int16:
            if len(arr) and (arr.min() < -32768 or arr.max() > 32767):
                raise ValueError("samples out of 16-bit range")
            arr = arr.astype(np.int16)
        self.samples = arr
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self):
        return len(self.samples)


def _check_frame(n_bits: int, frame_bits: int) -> None:
    """The frame rules of a PWM1 header, for check_pwm_header and the
    in-memory stream alike."""
    if not 0 < frame_bits < 2 ** 32:  # a PWM1 u32 field
        raise ValueError("frame_bits must be in 1 .. 2^32 - 1")
    if n_bits % frame_bits != 0:
        raise ValueError("bit count must be a multiple of frame_bits")


def check_pwm_header(n_bits: int, clock_hz: int, frame_bits: int) -> None:
    """Check a PWM1 header's fields: the frame rules (ValueError), the u32
    bit count (StreamTooLong), then the u32 bit clock (ClockTooHigh)."""
    _check_frame(n_bits, frame_bits)
    if n_bits > PWM_MAX_BITS:
        raise StreamTooLong(f"stream too long: {n_bits} bits, the PWM1 bit "
                            f"count field holds at most {PWM_MAX_BITS}")
    if clock_hz > PWM_MAX_CLOCK_HZ:
        raise ClockTooHigh(f"bit clock too high: {clock_hz} Hz, the PWM1 "
                           f"clock field holds at most {PWM_MAX_CLOCK_HZ} Hz")


@dataclass
class PwmBitstream:
    """PWM bits packed LSB-first into bytes with zero pad bits (the PWM1
    payload as it is on disk), plus the frame geometry."""

    payload: np.ndarray  # uint8, ceil(n_bits / 8) bytes
    n_bits: int
    clock_hz: int
    frame_bits: int

    def __post_init__(self):
        self.payload = np.asarray(self.payload, dtype=np.uint8)
        _check_frame(self.n_bits, self.frame_bits)
        if self.payload.shape != ((self.n_bits + 7) // 8,):
            raise ValueError(f"{self.n_bits} bits need "
                             f"{(self.n_bits + 7) // 8} payload bytes, "
                             f"got shape {self.payload.shape}")
        if self.n_bits % 8 and self.payload[-1] >> (self.n_bits % 8):
            raise ValueError("pad bits of the last payload byte must be zero")

    @classmethod
    def from_bits(cls, bits, clock_hz: int, frame_bits: int) -> "PwmBitstream":
        """Pack unpacked bits, one uint8 0/1 per bit, into a stream."""
        bits = np.asarray(bits, dtype=np.uint8)
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
    """

    def __init__(self, path):
        self.path = path
        try:
            self._fh = open(path, "rb")
        except OSError as exc:
            raise IoFailure(f"cannot read {path}: {exc}") from exc
        try:
            if not self._fh.seekable():  # a pipe: hold it in memory
                self._fh = io.BytesIO(self._fh.read())
            self._parse()
        except OSError as exc:
            self.close()
            raise IoFailure(f"cannot read {path}: {exc}") from exc
        except BaseException:
            self.close()
            raise

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
        """The int16 mono samples, at most _WAV_BLOCK at a time.  Each frame
        is the arithmetic mean of its channels, rounded toward zero."""
        align = 2 * self.channels
        try:
            self._fh.seek(self._data_at)
            for start in range(0, self.frame_count, _WAV_BLOCK):
                n = min(_WAV_BLOCK, self.frame_count - start)
                raw = self._fh.read(n * align)
                if len(raw) != n * align:
                    raise MalformedHeader("data chunk shrank while reading")
                frames = np.frombuffer(raw, dtype="<i2").reshape(
                    n, self.channels).astype(np.int64)
                yield np.trunc(frames.sum(axis=1) / self.channels
                               ).astype(np.int16)
        except OSError as exc:
            raise IoFailure(f"cannot read {self.path}: {exc}") from exc

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def collect(reader) -> PcmStream:
    """All samples of a reader (sample_rate, frame_count and blocks(), as
    WavReader has them) in one preallocated PcmStream."""
    samples = np.empty(reader.frame_count, dtype=np.int16)
    pos = 0
    for block in reader.blocks():
        samples[pos:pos + len(block)] = block
        pos += len(block)
    return PcmStream(samples=samples, sample_rate=reader.sample_rate)


def read_wav(path) -> PcmStream:
    """Read a whole 16-bit PCM WAV file, downmixing to mono.

    Raises as WavReader does.
    """
    with WavReader(path) as wav:
        return collect(wav)


def write_pwm(stream: PwmBitstream, path) -> None:
    """Write a PwmBitstream to a PWM1 container file, as write_pwm_blocks
    writes its payload as one block."""
    write_pwm_blocks([stream.payload], path, n_bits=stream.n_bits,
                     clock_hz=stream.clock_hz, frame_bits=stream.frame_bits)


def write_pwm_blocks(blocks: Iterable[np.ndarray], path, *, n_bits: int,
                     clock_hz: int, frame_bits: int) -> None:
    """Write a PWM1 file: the header from the given fields, then the payload
    blocks (uint8, packed LSB-first) in order.

    Raises as check_pwm_header does, before touching the file or reading
    a block.  The file is written beside `path` and renamed over it only
    once the blocks held the ceil(n_bits / 8) bytes the header declares
    (ValueError if not), so a failure or an interrupt part way leaves
    `path` as it was.  A `path` that exists and is no regular file, such
    as a device, is written in place.
    """
    check_pwm_header(n_bits, clock_hz, frame_bits)
    header = _HEADER.pack(PWM_MAGIC, clock_hz, frame_bits, n_bits)
    target = os.path.realpath(path)
    tmp = None
    if os.path.isfile(target) or not os.path.exists(target):
        head, name = os.path.split(target)
        tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp or target, "xb" if tmp else "wb") as fh:
            fh.write(header)
            written = 0
            for block in blocks:
                block = np.ascontiguousarray(block, dtype=np.uint8)
                fh.write(block)
                written += block.nbytes
        if written != (n_bits + 7) // 8:
            raise ValueError(f"payload blocks hold {written} bytes, {n_bits} "
                             f"bits need {(n_bits + 7) // 8}")
        if tmp:
            os.replace(tmp, target)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp and os.path.exists(tmp):
            os.remove(tmp)


def read_pwm(path) -> PwmBitstream:
    """Read a PWM1 container file; inverse of write_pwm, bit-exact.

    Pad bits set in the last payload byte are cleared, so the stream equals
    the one with zero padding and writes back with zero pad bits.  Fields
    that PwmBitstream refuses raise MalformedHeader.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc

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
    except ValueError as exc:
        raise MalformedHeader(str(exc)) from exc
