"""The Python examples of README.md, run in order in one namespace from the
repository root, so they cannot go stale."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"```python\n(.*?)```",
                    (ROOT / "README.md").read_text(encoding="utf-8"), re.S)


def test_readme_python_examples(monkeypatch, capsys):
    assert len(BLOCKS) == 3
    monkeypatch.chdir(ROOT)
    namespace = {}
    for block in BLOCKS:
        exec(compile(block, "README.md", "exec"), namespace)
    snr_db, same_bytes, same_audio, dsp_s = capsys.readouterr().out.split()
    snr_db, dsp_s = float(snr_db), float(dsp_s)
    assert snr_db > 60.0
    assert same_bytes == "True"  # convert_stream over 1000-sample blocks
    assert same_audio == "True"  # demodulate_stream fed by convert_stream
    # 1 s of audio on the DSP: the op model's total over its 60 MHz clock
    assert namespace["counts"]["S1"]["mac"] == 5_556_600
    assert abs(dsp_s - sum(namespace["per_behavior"].values()) / 60e6) < 1e-9
