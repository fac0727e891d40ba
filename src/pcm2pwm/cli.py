"""Command-line frontend for the converter, profiler and explorer.

Subcommands:

    convert    WAV -> PWM1 file, reporting the achieved and avoided clocks
    profile    operation counts and per-element time estimates
    explore    exhaustive hardware/software mapping search
    roundtrip  convert, demodulate and score against the input

Inputs are WAV paths or synthetic specs ("sine:FREQ_HZ:AMP_DBFS[:SECONDS]",
"noise:AMP_DBFS[:SECONDS]", "silence[:SECONDS]"); synthetic signals default
to 4.3 s and noise uses --seed.  Exit codes:

    0    success
    2    input error: a missing, malformed or empty input, a bad option
         value, an output path that cannot be written, a convert input
         over the PWM1 bit count (95.1 s at 44.1 kHz) or bit clock
         (4,194,304 Hz sample rate or more), or a roundtrip input the
         demodulator cannot map onto its rate or that is too short to
         score (under 256 samples)
    3    no feasible mapping
    4    quality floor missed
    141  stdout closed early, e.g. by `| head` (128 + SIGPIPE)
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources

import numpy as np

from . import audio_io, chain, dse, profiler, verification

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_FEASIBLE = 3
EXIT_QUALITY = 4
EXIT_CLOSED_STDOUT = 141

DEFAULT_SIGNAL_SECONDS = 4.3


class InputError(Exception):
    pass


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the Python docs' SIGPIPE recipe: point stdout at devnull so the
        # flush at interpreter exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except (InputError, audio_io.IoFailure, profiler.UnknownBehavior,
            verification.LengthMismatch, verification.MalformedStream) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except dse.NoFeasibleOption as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_FEASIBLE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcm2pwm",
        description="PCM to Class-D PWM conversion, cost profiling and "
                    "hardware/software mapping exploration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a WAV file to a PWM1 bitstream")
    _add_input(p)
    p.add_argument("--output", required=True, help="PWM1 output path")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("profile", help="count operations and estimate times")
    _add_input(p, required=False)
    p.add_argument("--scenario", help="scenario file with principal cycle "
                                      "totals (instead of a live run)")
    p.add_argument("--pe-lib", help="processing-element library (INI)")
    p.add_argument("--deadline-ms", type=float, default=4300.0,
                   help="real-time goal for fixture runs (default 4300)")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("explore", help="evaluate all hardware/software mappings")
    p.add_argument("--scenario", help="scenario file (default: bundled)")
    p.add_argument("--deadline-ms", type=float,
                   help="override the scenario deadline")
    p.add_argument("--pin", action="append", default=[], metavar="NAME=hw|sw",
                   help="force a behavior onto one side (repeatable)")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("roundtrip", help="convert, demodulate and score")
    _add_input(p)
    p.add_argument("--snr-floor-db", type=float, default=60.0,
                   help="fail (exit 4) below this SNR (default 60)")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_roundtrip)

    return parser


def _add_input(p, required=True):
    p.add_argument("--input", required=required,
                   help="WAV path or sine:FREQ:AMP_DBFS[:SECONDS] / "
                        "noise:AMP_DBFS[:SECONDS] / silence[:SECONDS]")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for generated noise signals")


def cmd_convert(args) -> int:
    pcm = _load_input(args.input, args.seed)
    if not len(pcm):
        raise InputError("input has no samples")
    bits_per_sample = 1 << (chain.INTERP_STAGES + chain.QUANTIZER_BITS)
    n_bits = len(pcm) * bits_per_sample
    if n_bits > audio_io.PWM_MAX_BITS:
        raise InputError(f"input too long: {len(pcm)} samples make {n_bits} "
                         f"bits, PWM1 holds at most {audio_io.PWM_MAX_BITS}")
    clock_hz = pcm.sample_rate * bits_per_sample
    if clock_hz > audio_io.PWM_MAX_CLOCK_HZ:
        raise InputError(f"sample rate too high: {pcm.sample_rate} Hz makes a "
                         f"{clock_hz} Hz bit clock, PWM1 holds at most "
                         f"{audio_io.PWM_MAX_CLOCK_HZ}")
    pwm = chain.convert(pcm)
    audio_io.write_pwm(pwm, args.output)
    print(f"frames: {pwm.frame_count}")
    print(f"frame bits: {pwm.frame_bits}")
    print(f"pwm clock: {pwm.clock_hz} Hz")
    # pulse resolution a direct 16-bit amplitude-to-width mapping would need
    print(f"naive clock: {2 ** 16 * pcm.sample_rate} Hz")
    print(f"wrote: {args.output}")
    return EXIT_OK


def cmd_profile(args) -> int:
    pes = profiler.load_pe_library(args.pe_lib or _bundled("pe_library.ini"))
    out_lines = []

    if args.scenario:
        scenario = _load_scenario(args.scenario)
        if not scenario.principal_cycles:
            raise InputError(f"{args.scenario} has no [principal_cycles]")
        missing = scenario.principal_cycles.keys() - {pe.name for pe in pes}
        if missing:
            raise InputError(f"cycle totals for unknown elements: "
                             f"{sorted(missing)}")
        used = [pe for pe in pes if pe.name in scenario.principal_cycles]
        playback_s = args.deadline_ms / 1000.0
        rows = profiler.principal_summary_rows(scenario.principal_cycles,
                                               used, playback_s)
        if args.format == "csv":
            out_lines.append(profiler.principal_summary_csv(rows))
        else:
            out_lines.append(profiler.format_principal_summary(rows, playback_s))
    elif args.input:
        pcm = _load_input(args.input, args.seed)
        recorder = profiler.OpRecorder()
        if len(pcm):  # nothing to run on empty input: all counts stay zero
            chain.convert(pcm, recorder=recorder)
        counts = recorder.snapshot()
        playback_s = len(pcm) / pcm.sample_rate if len(pcm) else (
            args.deadline_ms / 1000.0)
        totals = {pe.name: sum(profiler.cycles(counts, pe).values())
                  for pe in pes}
        rows = profiler.principal_summary_rows(totals, pes, playback_s)
        out_lines.append(profiler.profile_report_csv(counts, pes))
        if args.format == "csv":
            out_lines += ["", profiler.principal_summary_csv(rows)]
        else:
            out_lines.append(profiler.format_principal_summary(rows, playback_s))
    else:
        raise InputError("profile needs --input or --scenario")

    report = "\n".join(out_lines)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(report)
        except OSError as exc:
            raise audio_io.IoFailure(
                f"cannot write {args.output}: {exc}") from exc
    else:
        print(report, end="" if report.endswith("\n") else "\n")
    return EXIT_OK


def cmd_explore(args) -> int:
    scenario = _load_scenario(args.scenario or _bundled("baseline.scenario"))
    cm = scenario.cost_model
    if args.deadline_ms is not None:
        cm = dse.CostModel(sw_fixed_cost_cents=cm.sw_fixed_cost_cents,
                           hw_total_cost_cents=cm.hw_total_cost_cents,
                           deadline_us=int(round(args.deadline_ms * 1000)))
    pins = _parse_pins(args.pin)
    options = dse.enumerate_partitions(scenario.estimates, cm, pins)
    selected = dse.select(options, cm)  # exits 3 via NoFeasibleOption

    if args.format == "csv":
        print(dse.options_table_csv(options, selected), end="")
        return EXIT_OK

    print(dse.estimates_table_text(scenario))
    print(dse.options_table_text(
        options, selected,
        title=f"all mappings ({len(options)}), deadline {cm.deadline_ms:.1f} ms"))
    shortlist = [o for m in dse.SHORTLIST_MAPPINGS
                 for o in options if o.hw_set == m]
    if shortlist:
        print(dse.options_table_text(shortlist, selected,
                                     title="shortlisted mappings"))
        _print_tradeoff(shortlist, selected, cm)
    print(f"selected: {selected.describe_hw_set()} "
          f"({selected.t_total_ms:.1f} ms, ${selected.cost_usd:.2f})")
    return EXIT_OK


def _print_tradeoff(shortlist, selected, cm):
    """Compare the selected mapping against the next-cheapest feasible one."""
    others = [o for o in shortlist
              if o != selected and o.t_total_us < cm.deadline_us]
    if not others:
        return
    rival = min(others, key=lambda o: o.cost_cents)
    delta = dse.compare(rival, selected)
    print(f"trade-off: {rival.describe_hw_set()} beats "
          f"{selected.describe_hw_set()} by {delta.time_delta_pct:.2f}% in "
          f"time but costs {delta.cost_delta_pct:.2f}% more")
    print()


def cmd_roundtrip(args) -> int:
    pcm = _load_input(args.input, args.seed)
    if not len(pcm):
        raise InputError("input has no samples")
    pwm = chain.convert(pcm)
    audio = verification.demodulate(pwm, pcm.sample_rate)
    report = verification.measure(chain.s0_condition(pcm), audio)
    if args.format == "csv":
        print(report.csv(), end="")
    else:
        print(report.text(), end="")
    if report.snr_db < args.snr_floor_db:
        print(f"snr {report.snr_db:.2f} dB below the "
              f"{args.snr_floor_db:.2f} dB floor", file=sys.stderr)
        return EXIT_QUALITY
    return EXIT_OK


def _load_input(spec: str, seed: int) -> audio_io.PcmStream:
    kind, _, rest = spec.partition(":")
    if kind in ("sine", "noise", "silence"):
        return _synthesize(kind, rest, seed)
    try:
        return audio_io.read_wav(spec)
    except audio_io.IoFailure as exc:
        raise InputError(f"input not found: {spec}") from exc
    except (audio_io.MalformedHeader, audio_io.UnsupportedFormat) as exc:
        raise InputError(f"{spec}: {exc}") from exc


def _synthesize(kind: str, rest: str, seed: int) -> audio_io.PcmStream:
    parts = [p for p in rest.split(":") if p]
    rate = 44100
    try:
        if kind == "sine":
            freq = float(parts[0])
            amp = 10.0 ** (float(parts[1]) / 20.0)
            seconds = float(parts[2]) if len(parts) > 2 else DEFAULT_SIGNAL_SECONDS
            t = np.arange(int(round(seconds * rate))) / rate
            wave = amp * np.sin(2.0 * np.pi * freq * t)
        elif kind == "noise":
            amp = 10.0 ** (float(parts[0]) / 20.0)
            seconds = float(parts[1]) if len(parts) > 1 else DEFAULT_SIGNAL_SECONDS
            rng = np.random.default_rng(seed)
            wave = amp * rng.uniform(-1.0, 1.0, int(round(seconds * rate)))
        else:
            seconds = float(parts[0]) if parts else DEFAULT_SIGNAL_SECONDS
            wave = np.zeros(int(round(seconds * rate)))
    except (IndexError, ValueError) as exc:
        raise InputError(f"bad synthetic signal spec {kind}:{rest}") from exc
    samples = np.clip(np.round(wave * 32767.0), -32768, 32767).astype(np.int16)
    return audio_io.PcmStream(samples=samples, sample_rate=rate)


def _load_scenario(path):
    try:
        return dse.load_scenario(path)
    except FileNotFoundError as exc:
        raise InputError(f"input not found: {path}") from exc
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_pins(pin_args):
    pins = {}
    for item in pin_args:
        name, sep, side = item.partition("=")
        if not sep or side not in ("hw", "sw"):
            raise InputError(f"bad --pin {item!r}, expected NAME=hw|sw")
        pins[name.strip()] = side
    return pins


def _bundled(name: str) -> str:
    return str(resources.files("pcm2pwm").joinpath("data", name))


if __name__ == "__main__":
    sys.exit(main())
