"""Command-line frontend for the converter, profiler and explorer.

Subcommands:

    convert    WAV -> PWM1 file, reporting the achieved and avoided clocks
    profile    modelled operation counts and per-element time estimates
    explore    exhaustive hardware/software mapping search
    roundtrip  convert, demodulate and score against the input

Inputs are WAV paths or synthetic specs ("sine:FREQ_HZ:AMP_DBFS[:SECONDS]",
"noise:AMP_DBFS[:SECONDS]", "silence[:SECONDS]", no field empty);
synthetic signals default to 4.3 s; convert and roundtrip seed noise with
--seed.  --deadline-ms is read in whole microseconds, as a scenario's
deadline_ms; profile's goal is --deadline-ms, else the scenario's
deadline_ms, the clip's length, or 4.3 s for an empty input.  Exit codes:

    0    success
    1    the roundtrip demodulator worker ended without a reply
    2    input error: a missing, unreadable (a directory, say),
         malformed or empty input, a bad option value (a negative
         --seed, a --deadline-ms finer than microseconds or an empty
         path given to any file option, say), a scenario or element
         library that is missing, a directory, not UTF-8 or malformed
         (no section header, a duplicate section, a missing key or
         weight, a negative cycle total, all code sizes 0, over 20
         behaviors to explore, a value or sum the report cannot print as
         a float, an element cost that is not finite), a --pin side with
         a space around it, one behavior pinned to both hw and sw (--pin
         S0=hw --pin S0=sw), an output path that cannot be written
         (named with the OS reason only), a convert or roundtrip input
         over the PWM1 bit count (95.1 s at 44.1 kHz) or bit clock
         (4,194,304 Hz sample rate or more), both given to profile
         (--input and --scenario), profile --deadline-ms with an --input
         that has samples (its goal is the clip's length), profile
         --scenario with deadline_ms = 0 and no --deadline-ms, or a
         roundtrip input too short to score (under 256 samples)
    3    no feasible mapping
    4    quality floor missed
    141  stdout closed early, e.g. by `| head` (128 + SIGPIPE)

Every input file (--input as a WAV path, --scenario, --pe-lib) is read
and refused by one rule, _load's, naming it once: a missing one gives
"input not found: P", one that cannot be read "cannot read P: REASON",
and one whose content is refused "P: reason".  An element library is
refused at load for an element that lacks any op kind's weight, whether
profile counts with it (--input) or not (--scenario).  The two refusals
made after their file is loaded name it the same way: explore's "P: N
behaviors, cap is 20" and a WAV's "P: data chunk shrank while reading".

convert and roundtrip stream: the WAV reader and the synthetic inputs
make blocks of audio_io._BLOCK samples, the chain runs over them, and
roundtrip feeds its PWM payload blocks straight into the demodulator
(verification.demodulate_stream), so neither holds a whole PWM stream.
One such block is the unit end to end: one chain pass, one 128 KiB
payload block, one pipe message and one pass of each demodulator stage.
roundtrip still holds the input clip, the clip demodulated back to the
input rate and the FFTs measure takes of them.

roundtrip runs on two processes and needs POSIX fork: the chain runs in
this one, the demodulator in one worker forked from it, fed the payload
blocks through a pipe at the OS default buffer (on Linux it holds one
whole block and most of the next).  The two overlap, as SpecC behaviors
mapped to two processing elements do.  The worker runs with SIGINT
blocked, so a Ctrl-C is reported once, by this process, and the worker
leaves when the pipe closes.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import math
import os
import sys
from importlib import resources

import numpy as np

from . import audio_io, chain, dse, profiler, verification

EXIT_OK = 0
EXIT_WORKER = 1
EXIT_INPUT = 2
EXIT_NO_FEASIBLE = 3
EXIT_QUALITY = 4
EXIT_CLOSED_STDOUT = 141

DEFAULT_SIGNAL_SECONDS = 4.3


class InputError(Exception):
    pass


class WorkerDied(Exception):
    """The roundtrip demodulator worker ended without a reply."""


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # '' names no file, not stdout, the working directory or a default
        for option in ("input", "output", "scenario", "pe_lib"):
            if getattr(args, option, None) == "":
                raise InputError(f"--{option.replace('_', '-')} '' names "
                                 f"no file")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the Python docs' SIGPIPE recipe: point stdout at devnull so the
        # flush at interpreter exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except (InputError, audio_io.IoFailure, audio_io.MalformedHeader,
            audio_io.MalformedStream, audio_io.StreamTooLong,
            audio_io.ClockTooHigh, dse.UnknownBehavior,
            verification.LengthMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except dse.NoFeasibleOption as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_FEASIBLE
    except WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER


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
    p.add_argument("--input", help="WAV path or synthetic spec, as for "
                                   "convert; only its length and rate count")
    p.add_argument("--scenario", help="scenario file with principal cycle "
                                      "totals (instead of modelled counts)")
    p.add_argument("--pe-lib", help="processing-element library (INI)")
    p.add_argument("--deadline-ms", type=float,
                   help="real-time goal, in whole microseconds, for "
                        "--scenario (default: its deadline_ms) or an empty "
                        "--input (default 4300); a clip's goal is its own "
                        "length")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("explore", help="evaluate all hardware/software mappings")
    p.add_argument("--scenario", help="scenario file (default: bundled)")
    p.add_argument("--deadline-ms", type=float,
                   help="override the scenario deadline, in whole "
                        "microseconds")
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


def _add_input(p):
    p.add_argument("--input", required=True,
                   help="WAV path or sine:FREQ:AMP_DBFS[:SECONDS] / "
                        "noise:AMP_DBFS[:SECONDS] / silence[:SECONDS]")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for generated noise signals")


def cmd_convert(args) -> int:
    with _open_input(args.input, args.seed) as source:
        n_bits, clock_hz = _pwm_size(source)
        rate, frame_bits = source.sample_rate, chain.FRAME_BITS
        audio_io.write_pwm_blocks(
            chain.convert_stream(source.blocks(), rate), args.output,
            n_bits=n_bits, clock_hz=clock_hz, frame_bits=frame_bits)
    print(f"frames: {n_bits // frame_bits}")
    print(f"frame bits: {frame_bits}")
    print(f"pwm clock: {clock_hz} Hz")
    # pulse resolution a direct 16-bit amplitude-to-width mapping would need
    print(f"naive clock: {2 ** 16 * rate} Hz")
    print(f"wrote: {args.output}")
    return EXIT_OK


def _pwm_size(source) -> tuple:
    """(n_bits, clock_hz) of the PWM stream the chain makes of an opened
    input, from its header alone; InputError for an empty input, and
    audio_io.check_pwm_header's errors for one the PWM1 header cannot
    declare."""
    if not source.frame_count:
        raise InputError("input has no samples")
    n_bits = source.frame_count * chain.PWM_BITS_PER_SAMPLE
    clock_hz = source.sample_rate * chain.PWM_BITS_PER_SAMPLE
    audio_io.check_pwm_header(n_bits, clock_hz, chain.FRAME_BITS)
    return n_bits, clock_hz


def cmd_profile(args) -> int:
    if args.scenario and args.input:
        raise InputError("profile takes --input or --scenario, not both")
    goal_ms = (None if args.deadline_ms is None
               else _deadline_us(args.deadline_ms) / 1000)
    pe_lib = args.pe_lib or _bundled("pe_library.ini")
    pes = _load(profiler.load_pe_library, pe_lib)
    out_lines = []

    if args.scenario:
        scenario = _load(dse.load_scenario, args.scenario)
        totals = scenario.principal_cycles
        if not totals:
            raise InputError(f"{args.scenario} has no [principal_cycles]")
        missing = totals.keys() - {pe.name for pe in pes}
        if missing:
            raise InputError(f"cycle totals for unknown elements: "
                             f"{sorted(missing)}")
        pes = [pe for pe in pes if pe.name in totals]
        if goal_ms is None:
            goal_ms = scenario.cost_model.deadline_ms
            if not goal_ms:
                raise InputError(f"{args.scenario}: deadline_ms = 0 is no "
                                 f"real-time goal; give --deadline-ms")
        playback_s = goal_ms / 1000.0
        where = f"{args.scenario}: [principal_cycles]"
    elif args.input:
        with _open_input(args.input, 0) as source:  # header only, no noise
            n, rate = source.frame_count, source.sample_rate
        if n:  # a clip's goal is its own length
            if goal_ms is not None:
                raise InputError("--deadline-ms applies to --scenario or an "
                                 "empty --input; a clip's goal is its "
                                 "own length")
            playback_s = n / rate
        else:  # an empty input plays for the deadline
            playback_s = (DEFAULT_SIGNAL_SECONDS if goal_ms is None
                          else goal_ms / 1000.0)
        counts = profiler.op_counts(n)
        totals = {pe.name: sum(profiler.cycles(counts, pe).values())
                  for pe in pes}
        where = f"{args.input} on {pe_lib}:"
    else:
        raise InputError("profile needs --input or --scenario")
    # the report prints each time as a float, none over its element's total
    for pe in pes:
        try:
            float(profiler.exec_time(totals[pe.name], pe))
        except OverflowError:
            raise InputError(f"{where} {pe.name} takes more seconds than a "
                             f"float holds") from None
    if args.input:
        out_lines.append(profiler.profile_report_csv(counts, pes))
        if args.format == "csv":
            out_lines.append("")

    rows = profiler.principal_summary_rows(totals, pes, playback_s)
    if args.format == "csv":
        out_lines.append(profiler.principal_summary_csv(rows))
    else:
        out_lines.append(profiler.format_principal_summary(rows, playback_s))
    report = "\n".join(out_lines)
    if args.output is None:
        print(report, end="")
    else:
        audio_io._write_whole(args.output, [report.encode("utf-8")])
    return EXIT_OK


def cmd_explore(args) -> int:
    path = args.scenario or _bundled("baseline.scenario")
    scenario = _load(dse.load_scenario, path)
    cm = scenario.cost_model
    if args.deadline_ms is not None:
        cm = dataclasses.replace(cm,
                                 deadline_us=_deadline_us(args.deadline_ms))
    pins = _parse_pins(args.pin)
    try:
        options = dse.enumerate_partitions(scenario.estimates, cm, pins)
    except dse.TooManyBehaviors as exc:  # the file's fault, found after _load
        raise InputError(f"{path}: {exc}") from exc
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
        _print_tradeoff(shortlist, selected)
    print(f"selected: {selected.describe_hw_set()} "
          f"({selected.t_total_ms:.1f} ms, ${selected.cost_usd:.2f})")
    return EXIT_OK


def _print_tradeoff(shortlist, selected):
    """Compare the selected mapping with the next-cheapest feasible one:
    the time that one saves and the cost it adds, in % of its own."""
    others = [o for o in shortlist if o != selected and o.feasible]
    if not others:
        return
    rival = min(others, key=lambda o: o.cost_cents)
    # t > 0, as BehaviorEstimate times are positive; c may be $0
    t, c = rival.t_total_us, rival.cost_cents
    time_pct = 100 * (selected.t_total_us - t) / t
    cost_pct = (c - selected.cost_cents) / c * 100.0 if c else 0.0
    print(f"trade-off: {rival.describe_hw_set()} beats "
          f"{selected.describe_hw_set()} by {time_pct:.2f}% in "
          f"time but costs {cost_pct:.2f}% more")
    print()


def cmd_roundtrip(args) -> int:
    floor_db = _finite("--snr-floor-db", args.snr_floor_db)
    with _open_input(args.input, args.seed) as source:
        n_bits, clock_hz = _pwm_size(source)
        rate = source.sample_rate
        pcm = audio_io.collect(source.blocks(), source.frame_count, np.int16)
    audio = _demodulate_in_worker(chain.convert_stream([pcm], rate),
                                  n_bits=n_bits, clock_hz=clock_hz)
    report = verification.measure(chain.s0_condition(pcm), audio, rate)
    if args.format == "csv":
        print(report.csv(), end="")
    else:
        print(report.text(), end="")
    if report.snr_db < floor_db:
        print(f"snr {report.snr_db:.2f} dB below the "
              f"{floor_db:.2f} dB floor", file=sys.stderr)
        return EXIT_QUALITY
    return EXIT_OK


def _demodulate_in_worker(payload, **stream) -> np.ndarray:
    """verification.demodulate_stream(payload, **stream), collected into one
    array, run in a forked worker while this process makes the payload.

    Each block goes to the worker as one message, then an empty end
    marker; a full pipe makes this process wait, so memory stays
    bounded.  The worker sends one reply, the audio or the
    exception that stopped it, which is raised here; WorkerDied if it
    ended without a reply.  Data flows one way until the end marker, so
    the two cannot deadlock.  The worker is joined before this returns or
    raises.
    """
    import multiprocessing  # here, so the other commands never load it
    import signal
    ctx = multiprocessing.get_context("fork")
    conn, worker_end = ctx.Pipe()
    worker = ctx.Process(target=_demodulate_worker,
                         args=(worker_end, conn, stream), daemon=True)
    # the worker is forked with SIGINT blocked and never unblocks it, so a
    # Ctrl-C is this process's alone to report
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        worker.start()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    worker_end.close()
    reply = None
    try:
        # a worker that stops reading says why in its reply
        with contextlib.suppress(BrokenPipeError, ConnectionResetError):
            for block in payload:
                conn.send_bytes(block)
            conn.send_bytes(b"")
        # a worker that died with blocks unread resets the pipe: no reply
        with contextlib.suppress(EOFError, ConnectionResetError):
            reply = conn.recv()
    finally:
        conn.close()  # a worker still reading leaves on EOF
        worker.join()
    if reply is None:
        raise WorkerDied(f"the demodulator worker ended without a reply "
                         f"(exit code {worker.exitcode})")
    if isinstance(reply, Exception):
        raise reply
    return reply


def _demodulate_worker(conn, parent_end, stream) -> None:
    """The worker's body: demodulate the payload blocks that arrive on conn
    until the empty end marker, then send back the audio or the exception
    that stopped it.  It leaves quietly if the parent closes the pipe
    first."""
    parent_end.close()  # else the parent closing its end is no EOF here

    def blocks():
        while block := conn.recv_bytes():
            yield np.frombuffer(block, dtype=np.uint8)
    try:
        reply = audio_io.collect(
            verification.demodulate_stream(blocks(), **stream),
            stream["n_bits"] // chain.PWM_BITS_PER_SAMPLE, np.float64)
    except EOFError:  # the parent left before the end marker
        return
    except Exception as exc:
        reply = exc
    with contextlib.suppress(OSError):  # the parent left before the reply
        conn.send(reply)


@contextlib.contextmanager
def _open_input(spec: str, seed: int):
    """The input as a reader whose sample_rate and frame_count are known
    before blocks() yields a sample: an audio_io.WavReader, or a
    _Synthetic for a synthetic spec.  InputError for a negative seed, and
    a WAV path refused as _load refuses every input file."""
    audio_io._integer("--seed", seed, 0, InputError)
    kind, *fields = spec.split(":")
    if kind in ("sine", "noise", "silence"):
        yield _Synthetic(kind, fields, seed)
        return
    with _load(audio_io.WavReader, spec) as wav:
        yield wav


class _Synthetic:
    """A synthetic signal spec, checked and sized on construction, whose
    blocks() makes the samples a block at a time, once (the same samples
    as one whole-array pass)."""

    sample_rate = 44100

    def __init__(self, kind: str, fields: list, seed: int):
        n_args = {"sine": 2, "noise": 1, "silence": 0}[kind]  # before SECONDS
        try:
            values = [float(p) for p in fields]  # an empty field is none
            if len(values) == n_args:
                values.append(DEFAULT_SIGNAL_SECONDS)
            *params, seconds = values
            if (len(params) != n_args or not all(map(math.isfinite, values))
                    or seconds < 0 or (kind == "sine" and params[0] < 0)):
                raise ValueError("wrong count, or not finite, or "
                                 "FREQ/SECONDS < 0")
            self.frame_count = int(round(seconds * self.sample_rate))
            self._amp = 10.0 ** (params[-1] / 20.0) if params else 0.0
            self._rng = np.random.default_rng(seed) if kind == "noise" else None
        except (OverflowError, ValueError) as exc:
            raise InputError(f"bad synthetic signal spec "
                             f"{':'.join([kind, *fields])}") from exc
        # sin(2 pi f n / rate) repeats in f with period rate: reducing f
        # keeps the phase finite for any finite f, and leaves f < rate as is
        self._freq = (math.fmod(params[0], self.sample_rate)
                      if kind == "sine" else None)

    def blocks(self):
        for start in range(0, self.frame_count, audio_io._BLOCK):
            n = min(audio_io._BLOCK, self.frame_count - start)
            if self._freq is not None:
                t = np.arange(start, start + n) / self.sample_rate
                wave = self._amp * np.sin(2.0 * np.pi * self._freq * t)
            elif self._rng is not None:
                wave = self._amp * self._rng.uniform(-1.0, 1.0, n)
            else:
                wave = np.zeros(n)
            yield np.clip(np.round(wave * 32767.0), -32768, 32767
                          ).astype(np.int16)


def _finite(option: str, value: float, positive: bool = False) -> float:
    """value, or InputError unless it is finite (and > 0 if positive)."""
    if not math.isfinite(value) or (positive and value <= 0):
        sign = " positive" if positive else ""
        raise InputError(f"{option} {value:g} is not a finite{sign} number")
    return value


def _deadline_us(deadline_ms: float) -> int:
    """--deadline-ms in whole microseconds, read as a scenario's deadline_ms
    is (dse._on_grid); InputError unless it is finite, positive and whole
    in microseconds.  The result / 1000 is deadline_ms again, exactly."""
    _finite("--deadline-ms", deadline_ms, positive=True)
    try:
        return dse._on_grid(str(deadline_ms), 1000)
    except ValueError as exc:
        raise InputError(f"--deadline-ms {exc}") from exc


def _load(loader, path):
    """loader(path), the one read rule of every input file: a missing file
    raises InputError "input not found: P", one that cannot be read the
    loader's IoFailure "cannot read P: REASON", and one it refuses as
    malformed InputError "P: reason" on one line, naming P once."""
    try:
        return loader(path)
    except audio_io.IoFailure as exc:
        if isinstance(exc.__cause__, FileNotFoundError):
            raise InputError(f"input not found: {path}") from exc
        raise
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from exc
    except (ValueError, configparser.Error, audio_io.MalformedHeader,
            audio_io.UnsupportedFormat) as exc:
        raise InputError(f"{path}: {' '.join(str(exc).split())}") from exc


def _parse_pins(pin_args):
    """NAME -> side for each --pin NAME=hw|sw; InputError for a malformed
    pin or two that pin one behavior to both sides."""
    pins = {}
    for item in pin_args:
        name, sep, side = item.partition("=")
        if not sep or name != name.strip() or side not in ("hw", "sw"):
            raise InputError(f"bad --pin {item!r}, expected NAME=hw|sw")
        if pins.setdefault(name, side) != side:
            raise InputError(f"--pin {name}={pins[name]} conflicts with "
                             f"--pin {name}={side}")
    return pins


def _bundled(name: str) -> str:
    return str(resources.files("pcm2pwm").joinpath("data", name))


if __name__ == "__main__":
    sys.exit(main())
