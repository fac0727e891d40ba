"""Operation counting and weighted cycle/time estimation.

The op model gives each behavior a fixed number of operations of each kind
per output sample; op_counts multiplies that table by the samples each
stage emits, so counting a conversion needs only its input length.  Counts
are turned into cycle estimates by weighting each operation kind with a
processing element's cycles-per-op table (a MAC costs one cycle on a DSP,
several on a general-purpose core), and into time by dividing through the
element's clock.  Times are exact rationals until formatted.

Processing elements are described in a plain-text INI library, one section
per element:

    [DSP]
    category = DSP
    cost = 8.00
    freq_mhz = 60
    weights = add:1, mul:1, mac:1, cmp:1, mem:1

Categories are DSP, Microproc., Microcontrol. or FPGA.  weights gives
every op kind (OP_KINDS) a cycles-per-op of at least 1: an element that
lacks one is refused when it is built, so when its library is loaded,
before anything is counted with it.  Other keys, such as the bundled
library's description, are notes for human readers and are ignored.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

from .audio_io import _integer, _read_whole
from .chain import BEHAVIORS, FIR_TAPS, STAGES

OP_KINDS = ("add", "mul", "mac", "cmp", "mem")
CATEGORIES = ("DSP", "Microproc.", "Microcontrol.", "FPGA")

# Operations per output sample; the x2 stages make one MAC per kernel tap.
_OPS_PER_SAMPLE = {
    "S0": {"mul": 1, "mem": 2},
    **dict.fromkeys((stage.name for stage in STAGES if stage.rate == 2),
                    {"mac": FIR_TAPS, "cmp": 2, "mem": 2}),
    "LINE": {"add": 6, "mul": 7, "cmp": 3, "mem": 4},
    "MOLD": {"add": 4, "mul": 3, "cmp": 2, "mem": 3},
}


def op_counts(n_samples: int) -> dict:
    """{behavior: {kind: count}}, every OP_KINDS key, for converting
    n_samples input samples: each behavior's row times the samples it
    emits, by the rates of STAGES.  LINE passes its two end samples through
    uncounted, and nothing runs for n = 0.  ValueError for an n_samples
    that is no integer of at least 0 (a bool is none)."""
    _integer("n_samples", n_samples, 0)
    n = n_samples
    emitted = {stage.name: (n := n * stage.rate) for stage in STAGES}
    emitted["LINE"] = max(emitted["LINE"] - 2, 0)  # its two end samples
    return {b: {k: _OPS_PER_SAMPLE[b].get(k, 0) * emitted[b] for k in OP_KINDS}
            for b in BEHAVIORS}


@dataclass(frozen=True)
class ProcessingElement:
    name: str
    category: str
    cost_usd: float
    freq_mhz: Fraction
    weights: dict  # op kind -> cycles per op

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"category {self.category!r} not in {CATEGORIES}")
        if self.freq_mhz <= 0:
            raise ValueError("freq_mhz must be positive")
        if not 0 <= self.cost_usd < math.inf:
            raise ValueError("cost must be finite and non-negative")
        for kind, w in self.weights.items():
            if kind not in OP_KINDS:
                raise ValueError(f"unknown op kind {kind!r} in weights")
            if w < 1:
                raise ValueError(f"weight for {kind} must be >= 1")
        for kind in OP_KINDS:
            if kind not in self.weights:
                raise ValueError(f"no weight for {kind}")
        # the profile prints an op's time as a float: one op of the
        # heaviest weight must fit in one
        try:
            float(max(self.weights.values())
                  / (Fraction(self.freq_mhz) * 10 ** 6))
        except OverflowError:
            raise ValueError("one op of the heaviest weight at freq_mhz "
                             "takes more seconds than a float holds") from None

    @property
    def is_hardware(self) -> bool:
        return self.category == "FPGA"


def cycles(counts: dict, pe: ProcessingElement) -> dict:
    """Weighted cycles per behavior: every counted operation times the
    element's cycles-per-op."""
    return {b: sum(n * pe.weights[kind] for kind, n in counts[b].items())
            for b in BEHAVIORS}


def exec_time(cycle_count: int, pe: ProcessingElement) -> Fraction:
    """Execution time in seconds, exact: cycles / (freq_mhz * 10^6).
    ValueError for a cycle_count that is no integer of at least 0."""
    _integer("cycle_count", cycle_count, 0)
    return Fraction(cycle_count) / (pe.freq_mhz * 10 ** 6)


def meets_realtime(t_seconds, playback_seconds) -> bool:
    """Strictly faster than the audio it processes."""
    if playback_seconds <= 0:
        raise ValueError("playback duration must be positive")
    return t_seconds < playback_seconds


def load_pe_library(path) -> list[ProcessingElement]:
    """Parse the INI element library; see the module docstring for the grammar."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(_read_whole(path, "utf-8"), source=str(path))
    pes = []
    for name in parser.sections():
        sec = parser[name]
        try:
            pe = ProcessingElement(
                name=name,
                category=sec["category"].strip(),
                cost_usd=float(sec["cost"]),
                freq_mhz=Fraction(sec["freq_mhz"].strip()),
                weights=_parse_weights(sec["weights"]),
            )
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad element entry [{name}]: {exc}") from exc
        pes.append(pe)
    if not pes:
        raise ValueError("no processing elements found")
    return pes


def _parse_weights(text: str) -> dict:
    out = {}
    for item in text.replace(",", " ").split():
        key, sep, value = item.partition(":")
        if not sep or not value:
            raise ValueError(f"expected key:value, got {item!r}")
        out[key.strip()] = int(value)
    return out


# --- reporting -------------------------------------------------------------

def profile_report_csv(counts: dict, pes: list[ProcessingElement]) -> str:
    """Flat CSV: one row per behavior/kind with cycles and time per element."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["behavior", "kind", "count"]
    for pe in pes:
        header += [f"{pe.name}_cycles", f"{pe.name}_time_s"]
    writer.writerow(header)
    per_pe = {pe.name: cycles(counts, pe) for pe in pes}
    for b in BEHAVIORS:
        for kind in OP_KINDS:
            n = counts[b][kind]
            row = [b, kind, n]
            for pe in pes:
                c = n * pe.weights[kind]
                row += [c, f"{float(exec_time(c, pe)):.6f}"]
            writer.writerow(row)
        row = [b, "total", sum(counts[b].values())]
        for pe in pes:
            c = per_pe[pe.name][b]
            row += [c, f"{float(exec_time(c, pe)):.6f}"]
        writer.writerow(row)
    return buf.getvalue()


def principal_summary_rows(cycle_totals: dict, pes: list[ProcessingElement],
                           playback_s: float) -> list[dict]:
    """Per-element totals with the real-time verdict.

    cycle_totals maps element name -> total cycles (measured or given).
    """
    rows = []
    for pe in pes:
        total = cycle_totals[pe.name]
        t = exec_time(total, pe)
        rows.append({
            "element": pe.name,
            "type": "HW" if pe.is_hardware else "SW",
            "cycles": total,
            "time_s": t,
            "goal": meets_realtime(t, playback_s),
        })
    return rows


def format_principal_summary(rows: list[dict], playback_s: float) -> str:
    lines = [f"{'element':<10}{'type':<6}{'cycles':>14}{'time (s)':>12}  goal",
             "-" * 48]
    for r in rows:
        mark = "X" if r["goal"] else ""
        lines.append(f"{r['element']:<10}{r['type']:<6}{r['cycles']:>14,}"
                     f"{float(r['time_s']):>12.2f}  {mark}")
    lines.append(f"goal: execution faster than {playback_s:.2f} s of audio")
    return "\n".join(lines) + "\n"


def principal_summary_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["element", "type", "cycles", "time_s", "goal"])
    for r in rows:
        writer.writerow([r["element"], r["type"], r["cycles"],
                         f"{float(r['time_s']):.2f}", "X" if r["goal"] else ""])
    return buf.getvalue()
