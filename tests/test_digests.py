"""Frozen SHA-256 digests of whole PWM1 files for four 4.3 s inputs.

The digests were taken once from the converter and are never re-frozen: any
change to the chain, the waveform generator or the PWM1 writer that moves a
single bit fails here.  Refactors and optimizations must keep them.
"""

import hashlib

import numpy as np
import pytest

from pcm2pwm.audio_io import PcmStream, write_pwm
from pcm2pwm.chain import convert

RATE = 44100
N = int(round(4.3 * RATE))


def _pcm(wave):
    samples = np.clip(np.round(wave * 32767.0), -32768, 32767).astype(np.int16)
    return PcmStream(samples=samples, sample_rate=RATE)


def _sine(freq_hz, dbfs):
    t = np.arange(N) / RATE
    return _pcm(10.0 ** (dbfs / 20.0) * np.sin(2.0 * np.pi * freq_hz * t))


INPUTS = {
    "sine-1k-minus6": lambda: _sine(1000.0, -6.0),
    "noise-seed0": lambda: _pcm(np.random.default_rng(0).uniform(-0.5, 0.5, N)),
    "silence": lambda: _pcm(np.zeros(N)),
    "sine-1k-fullscale": lambda: _sine(1000.0, 0.0),
}

DIGESTS = {
    "sine-1k-minus6":
        "891e8114dd2be74b870166ac1eee4e74b473f4097d5b26035c0603f86ec6dee5",
    "noise-seed0":
        "d473e61421ce9bd850c1a830edaefcd3f21043f8049c8e6657be4c9b3893f790",
    "silence":
        "f72969fcb03f2267d2b69ff5d092ce9cc1ddd36524cbc5fb7a18802366c97117",
    "sine-1k-fullscale":
        "3941244bb908a43a592773242b613bb582b0956092b999a2c79b92452233fb0d",
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_pwm_file_digest(name, tmp_path):
    path = tmp_path / f"{name}.pwm"
    write_pwm(convert(INPUTS[name]()), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]
