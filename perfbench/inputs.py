"""Seeded inputs and job lists of the three benchmark workloads.

Everything the program reads is generated here from the seed and written
to the work directory: WAV clips for ``convert`` and ``roundtrip``, scenario
files for ``codesign``.  A job is one ``pcm2pwm`` command line; the
workloads replay their job list in a closed loop.
"""

from __future__ import annotations

import hashlib
import json
import random
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RATE = 44100
CLIP_S = 4.3  # the paper's test clip
CLIP_SAMPLES = int(round(CLIP_S * RATE))
PWM_CLOCK_HZ = 45158400
FRAME_BITS = 128
OVERSAMPLING = 8  # S1-S3, x2 each

# Every co-design job plans the mapping for the 4.3 s clip its scenario
# describes; rtf on codesign counts that clip once per successful job.
PLAN_AUDIO_S = CLIP_S
PAPER_BEHAVIORS = ("S0", "S1", "S2", "S3", "LINE", "MOLD")
GENERATED_SIZES = (10, 11, 12, 13, 14)  # fixed per cycle: cost is seed-stable
GENERATED_DEADLINE_MS = 4300

EXIT_OK, EXIT_INPUT, EXIT_NO_FEASIBLE, EXIT_QUALITY = 0, 2, 3, 4


@dataclass(frozen=True)
class Job:
    """One command line plus what the benchmark knows about its outcome."""

    name: str
    argv: tuple
    expect_exit: int  # documented exit code, used by the structural checks
    audio_s: float  # audio seconds processed (rtf numerator) when it succeeds
    inputs: tuple = ()  # files in the work directory the job reads
    output: str | None = None  # file the job writes
    known_defect: str | None = None  # why the documented exit is not met today

    def key(self, work: Path) -> str:
        """Expectation key: command line plus the bytes of every input."""
        h = hashlib.sha256(json.dumps(self.argv).encode())
        for name in self.inputs:
            h.update((work / name).read_bytes())
        return h.hexdigest()[:24]


# --- audio clips -------------------------------------------------------------

def _dbfs(db: float) -> float:
    return 10.0 ** (db / 20.0)


def _tone(freq_hz: float, amp: float) -> np.ndarray:
    t = np.arange(CLIP_SAMPLES) / RATE
    return amp * np.sin(2.0 * np.pi * freq_hz * t)


def _int16(wave_: np.ndarray) -> np.ndarray:
    return np.clip(np.round(wave_ * 32767.0), -32768, 32767).astype(np.int16)


def clips(seed: int) -> dict:
    """name -> (interleaved int16 samples, channels, expected roundtrip exit).

    The mix spans the amplitudes the chain treats differently: a mid-level
    tone, a near-full-scale tone, noise with energy above the 20 kHz audio
    band (the demodulator removes it, so roundtrip documents exit 4),
    silence (the SNR cap case) and a stereo pair that exercises the
    downmix.  The two tones of the pair are seeded independently; when they
    lie far apart the roundtrip SNR drops below the 60 dB floor (38 dB at
    1014 Hz and 2539 Hz, against about 71 dB for either tone alone), and
    roundtrip then exits 4 as documented.
    """
    rng = np.random.default_rng([seed, 0x9C3])
    f_fs = float(np.round(np.exp(rng.uniform(np.log(100.0), np.log(4000.0))), 1))
    f_left, f_right = np.round(rng.uniform(200.0, 3000.0, 2), 1)
    noise = rng.uniform(-1.0, 1.0, CLIP_SAMPLES) * _dbfs(-3.0)
    stereo = np.empty(2 * CLIP_SAMPLES)
    stereo[0::2] = _tone(f_left, _dbfs(-6.0))
    stereo[1::2] = _tone(f_right, _dbfs(-6.0))
    return {
        "sine1k": (_int16(_tone(1000.0, _dbfs(-6.0))), 1, EXIT_OK),
        "sine_fs": (_int16(_tone(f_fs, _dbfs(-0.5))), 1, EXIT_OK),
        "noise": (_int16(noise), 1, EXIT_QUALITY),
        "silence": (np.zeros(CLIP_SAMPLES, dtype=np.int16), 1, EXIT_OK),
        "stereo": (_int16(stereo), 2, EXIT_OK),
    }


def write_wav(path: Path, samples: np.ndarray, channels: int) -> None:
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(RATE)
        wf.writeframes(samples.astype("<i2").tobytes())


def audio_jobs(workload: str, seed: int, work: Path) -> list:
    """Write the clips and return one job per clip in a seeded order."""
    jobs = []
    for name, (samples, channels, rt_exit) in clips(seed).items():
        wav = f"{name}.wav"
        write_wav(work / wav, samples, channels)
        if workload == "convert":
            jobs.append(Job(name, ("convert", "--input", wav, "--output", "out.pwm"),
                            EXIT_OK, CLIP_S, inputs=(wav,), output="out.pwm"))
        else:
            jobs.append(Job(name, ("roundtrip", "--input", wav), rt_exit, CLIP_S,
                            inputs=(wav,)))
    random.Random(seed).shuffle(jobs)
    return jobs


# --- co-design scenarios --------------------------------------------------------

def _generated_scenario(rng: random.Random, size: int) -> str:
    """A feasible scenario of `size` behaviors for a 4.3 s clip.

    Hardware times are scaled to 45-70 % of the deadline and software times
    are 1.3-2.6 times slower, so the all-software mapping misses the deadline
    and the cheapest feasible mapping is a real search.
    """
    names = list(PAPER_BEHAVIORS) + [f"E{i}" for i in range(len(PAPER_BEHAVIORS), size)]
    weights = [rng.uniform(0.05, 1.0) for _ in names]
    hw_total = GENERATED_DEADLINE_MS * rng.uniform(0.45, 0.70)
    lines = [f"# generated: {size} behaviors"]
    for name, w in zip(names, weights):
        t_hw = max(round(hw_total * w / sum(weights), 1), 0.1)
        t_sw = round(t_hw * rng.uniform(1.3, 2.6), 1)
        lines += [f"[behavior {name}]", f"t_hw_ms = {t_hw}", f"t_sw_ms = {t_sw}",
                  f"code_size = {rng.randint(1, 1200)}", ""]
    lines += ["[cost_model]", "sw_fixed_cost = 9.00", "hw_total_cost = 34.76",
              f"deadline_ms = {GENERATED_DEADLINE_MS}", ""]
    return "\n".join(lines)


# t_hw_ms, t_sw_ms of the bundled scenario; used only to keep seeded pins
# feasible, the program reads the scenario itself.
PAPER_TABLE = {"S0": (2.2, 5.4), "S1": (183.3, 305.6), "S2": (502.0, 836.7),
               "S3": (988.1, 1646.4), "LINE": (77.4, 188.1), "MOLD": (749.1, 1566.7)}


def _paper_pins(rng: random.Random, deadline_ms: float) -> list:
    """Up to two seeded pins that leave some mapping within the deadline."""
    while True:
        pinned = rng.sample(PAPER_BEHAVIORS, rng.randint(0, 2))
        sides = {b: rng.choice(("hw", "sw")) for b in pinned}
        fastest = sum(PAPER_TABLE[b][sides.get(b) == "sw"] for b in PAPER_BEHAVIORS)
        if fastest < deadline_ms:
            return [f"{b}={side}" for b, side in sides.items()]


def codesign_jobs(seed: int, work: Path, paper_scenario: str) -> list:
    """Write the scenarios and return one seeded cycle of co-design jobs.

    Per cycle: 13 paper-sized jobs (the bundled 6-behavior scenario under
    seeded deadlines and pins, plus `profile --scenario`), one generated
    scenario of each size in GENERATED_SIZES, and four documented-error
    jobs.  The sizes are fixed so a cycle costs about the same on every
    seed; the seed moves the numbers inside the files.
    """
    rng = random.Random(seed * 7919 + 17)
    (work / "paper.scenario").write_text(paper_scenario, encoding="utf-8")
    ok = PLAN_AUDIO_S
    jobs = [Job("explore-bundled", ("explore",), EXIT_OK, ok)]
    for i in range(9):
        deadline = round(rng.uniform(2600.0, 4500.0), 1)
        argv = ["explore", "--deadline-ms", str(deadline)]
        for pin in _paper_pins(rng, deadline):
            argv += ["--pin", pin]
        if i % 3 == 2:
            argv += ["--format", "csv"]
        jobs.append(Job(f"explore-paper-{i}", tuple(argv), EXIT_OK, ok))
    for i, fmt in enumerate(("text", "text", "csv")):
        argv = ("profile", "--scenario", "paper.scenario", "--deadline-ms",
                str(round(rng.uniform(3000.0, 6000.0), 1)), "--format", fmt)
        jobs.append(Job(f"profile-paper-{i}", argv, EXIT_OK, ok,
                        inputs=("paper.scenario",)))
    for size in GENERATED_SIZES:
        name = f"gen{size}.scenario"
        (work / name).write_text(_generated_scenario(rng, size), encoding="utf-8")
        jobs.append(Job(f"explore-gen{size}", ("explore", "--scenario", name),
                        EXIT_OK, ok, inputs=(name,)))
    pin = rng.choice(PAPER_BEHAVIORS)
    jobs += [
        Job("error-pin-syntax", ("explore", "--pin", f"{pin}:hw"), EXIT_INPUT, 0.0),
        Job("error-missing-scenario", ("explore", "--scenario", "missing.scenario"),
            EXIT_INPUT, 0.0),
        Job("error-infeasible", ("explore", "--deadline-ms",
                                 str(round(rng.uniform(1000.0, 2400.0), 1))),
            EXIT_NO_FEASIBLE, 0.0),
        Job("error-unknown-pin", ("explore", "--pin", "FOO=hw"), EXIT_INPUT, 0.0,
            known_defect="dse.UnknownBehavior escapes cli.main (exit 1) instead "
                         "of the documented input error (exit 2)"),
    ]
    rng.shuffle(jobs)
    return jobs
