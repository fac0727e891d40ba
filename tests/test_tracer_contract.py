"""The benchmark tracer, perfbench/tracing.py, loaded by path and run over
`convert` and `roundtrip`: what it reads of the program must stay there.

The tracer wraps every public function of the six modules, tags each
upsample2 call with its `behavior=` keyword (S1, S2 or S3), counts
len() of each chain stage's return value as its samples out and reads
`.bits` of the PwmBitstream generate_pwm returns.
"""

import importlib.util
from pathlib import Path

from pcm2pwm import audio_io, chain, cli, dse, profiler, verification

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
STAGES = {f"chain.{name}" for name in ("s0_condition", "upsample2",
                                       "linearize", "noise_shape",
                                       "generate_pwm")}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reads_what_the_chain_returns(tmp_path, capsys):
    tracing = _tracing()
    tracer = tracing.Tracer([cli, audio_io, chain, verification, profiler,
                             dse])
    jobs = [["convert", "--input", "sine:1000:-6:0.3",
             "--output", str(tmp_path / "out.pwm")],
            ["roundtrip", "--input", "sine:1000:-6:0.3"]]
    tracer.install()
    try:
        for job, argv in enumerate(jobs):
            tracer.job = job
            assert cli.main(argv) == 0
    finally:
        tracer.job = None
        tracer.uninstall()
    capsys.readouterr()

    for job in range(len(jobs)):
        spans = [s for s in tracer.spans if s.job == job]
        stage_spans = [s for s in spans if s.name in STAGES]
        assert {s.name for s in stage_spans} == STAGES
        assert all(s.counts["samples_out"] > 0 for s in stage_spans)
        assert {s.tag for s in spans
                if s.name == "chain.upsample2"} == {"S1", "S2", "S3"}
        assert set(tracing.behavior_self_s(spans)) == set(chain.BEHAVIORS)
