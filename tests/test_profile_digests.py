"""Frozen SHA-256 digests of `pcm2pwm profile --input X` stdout.

The digests were taken once, before the op counts came from a closed form
instead of a recorded conversion, and are never re-frozen: the report
(counts, cycles, times and goal marks, text and CSV) must not move by a
byte whichever way the counts are produced.
"""

import hashlib

import pytest

from pcm2pwm.cli import main

from conftest import sine_int16, write_wav

DIGESTS = {
    ("sine:1000:-6", "text"):
        "a5928d516606b4a53c8b9a2374b183a3a61139b38f031cd3dfa62aaf7516f53d",
    ("sine:1000:-6", "csv"):
        "28c8595e6ebf86fe67f243d7451fc4781769c0550f2be9c3af97b109f9e9f69c",
    ("noise:-6", "text"):
        "a5928d516606b4a53c8b9a2374b183a3a61139b38f031cd3dfa62aaf7516f53d",
    ("noise:-6", "csv"):
        "28c8595e6ebf86fe67f243d7451fc4781769c0550f2be9c3af97b109f9e9f69c",
    ("silence:0", "text"):
        "26fd2e26e6ee98c61c9dd83b3176c3ec63c6297c0373d16ff7492d42d805e9a7",
    ("silence:0", "csv"):
        "5d60a8873d15f70be83d66c7bd11f88b79bf4652f9beccced3dd9940bba14c06",
    # one sample
    ("sine:1000:-6:0.00003", "text"):
        "5e9293c8c189fc7cabc7e0d7cd02de6016fe4ebaa2772e3c6065e7726113b001",
    ("sine:1000:-6:0.00003", "csv"):
        "42bbf85f89bbb9fdac9e6b93cae2f7d89e9cc398c7b12154839b96718c65262e",
    # 0.1 s, 1 kHz at half scale
    ("short.wav", "text"):
        "b20bc1560fcbf35b98b2dac912d194b7b50cbd48fac9defb0d4c75508d396706",
    ("short.wav", "csv"):
        "e116b87a5fa9b7eeb7a30cd30d2fa437a67a11f5db00f226d7655dfc4ae2640d",
}


@pytest.mark.parametrize("source,fmt", sorted(DIGESTS))
def test_profile_stdout_digest(source, fmt, tmp_path, capsys):
    spec = source
    if source == "short.wav":
        spec = str(write_wav(tmp_path / source, sine_int16(1000, 0.5, 0.1)))
    assert main(["profile", "--input", spec, "--seed", "0",
                 "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[source, fmt]
