"""Hardware/software partition exploration over the six converter behaviors.

Every mapping of behaviors onto {hardware, software} is evaluated for total
execution time and component cost.  Execution is strictly sequential, so a
mapping's time is the sum of the software times of the software-resident
behaviors plus the hardware times of the rest.  Cost is a fixed software
platform price plus a hardware share per hardware-resident behavior,
attributed in proportion to code size.  The cheapest mapping that beats the
real-time deadline wins.

Money is held in integral cents and time in integral microseconds; values
are rounded only when formatted.

Scenario files (INI) provide the estimate table and cost model:

    [behavior S0]
    t_hw_ms = 2.2          ; time when mapped to hardware
    t_sw_ms = 5.4          ; time when mapped to software
    code_size = 1          ; abstract units, drives the cost share

    [cost_model]
    sw_fixed_cost = 9.00   ; software platform price, behaviors-independent
    hw_total_cost = 34.76  ; price attributed across hardware behaviors
    nominal_hw_cost = 35.00  ; optional: quoted component price
    deadline_ms = 4300

    [expected_totals]      ; optional cross-check of the estimate table
    hw_total_ms = 2502.5
    sw_total_ms = 4548.9

    [principal_cycles]     ; optional: whole-chain cycle totals per element
    DSP = 272935511
"""

from __future__ import annotations

import configparser
import csv
import io
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

MAX_BEHAVIORS = 20
TOTALS_TOLERANCE_US = 500  # estimate tables may disagree with a quoted total

# Hand-picked mappings worth printing alongside the exhaustive sweep: the
# heaviest single behavior, the three filter stages that share one kernel,
# the two buffer-coupled back-end behaviors, and the shaper alone.
SHORTLIST_MAPPINGS = (
    frozenset({"S3"}),
    frozenset({"S1", "S2", "S3"}),
    frozenset({"LINE", "MOLD"}),
    frozenset({"MOLD"}),
)


class AllZeroSizes(Exception):
    """Cost shares need at least one positive code size."""


class TooManyBehaviors(Exception):
    """Exhaustive enumeration is capped at 2^20 mappings."""


class NoFeasibleOption(Exception):
    """No mapping beats the deadline."""


class UnknownBehavior(Exception):
    """A mapped or pinned behavior missing from the estimate table."""


@dataclass(frozen=True)
class BehaviorEstimate:
    """One behavior's execution times and its hardware cost share."""

    name: str
    t_hw_us: int
    t_sw_us: int
    hw_cost_cents: int

    def __post_init__(self):
        if self.t_hw_us <= 0 or self.t_sw_us <= 0:
            raise ValueError(f"{self.name}: times must be positive")
        if self.hw_cost_cents < 0:
            raise ValueError(f"{self.name}: cost share must be non-negative")

    @property
    def t_hw_ms(self) -> float:
        return self.t_hw_us / 1000.0

    @property
    def t_sw_ms(self) -> float:
        return self.t_sw_us / 1000.0


@dataclass(frozen=True)
class CostModel:
    sw_fixed_cost_cents: int
    hw_total_cost_cents: int
    deadline_us: int

    def __post_init__(self):
        if min(self.sw_fixed_cost_cents, self.hw_total_cost_cents,
               self.deadline_us) < 0:
            raise ValueError("cost model values must be non-negative")

    @property
    def deadline_ms(self) -> float:
        return self.deadline_us / 1000.0


@dataclass(frozen=True)
class PartitionOption:
    """One evaluated hardware/software mapping."""

    hw_set: frozenset
    t_dsp_us: int
    t_hw_us: int
    t_total_us: int
    cost_cents: int
    feasible: bool

    @property
    def t_dsp_ms(self) -> float:
        return self.t_dsp_us / 1000.0

    @property
    def t_hw_ms(self) -> float:
        return self.t_hw_us / 1000.0

    @property
    def t_total_ms(self) -> float:
        return self.t_total_us / 1000.0

    @property
    def cost_usd(self) -> float:
        return self.cost_cents / 100.0

    def describe_hw_set(self) -> str:
        return ",".join(sorted(self.hw_set)) if self.hw_set else "-"


def hw_cost_share(code_sizes: dict, hw_total_cents: int) -> dict:
    """Split a hardware price over behaviors in proportion to code size.

    Shares are integral cents summing exactly to the total: each behavior
    gets the ceiling of its cumulative quota minus what was handed out
    before it, which spreads leftover cents deterministically.
    """
    if any(s < 0 for s in code_sizes.values()):
        raise ValueError("code sizes must be non-negative")
    sizes = [_as_fraction(s) for s in code_sizes.values()]
    total_size = sum(sizes)
    if total_size == 0:
        raise AllZeroSizes("all code sizes are zero")
    shares = {}
    cum = Fraction(0)
    allocated = 0
    for name, size in zip(code_sizes, sizes):
        cum += size
        quota = ceil(Fraction(hw_total_cents) * cum / total_size)
        shares[name] = quota - allocated
        allocated = quota
    return shares


def evaluate(hw_set, estimates: dict, cm: CostModel) -> PartitionOption:
    """Time and cost of one mapping; hardware and software run back to back."""
    hw_set = frozenset(hw_set)
    unknown = hw_set - estimates.keys()
    if unknown:
        raise UnknownBehavior(f"not in the estimate table: {sorted(unknown)}")
    t_hw = sum(estimates[b].t_hw_us for b in hw_set)
    t_dsp = sum(est.t_sw_us for b, est in estimates.items() if b not in hw_set)
    t_total = t_hw + t_dsp
    cost = cm.sw_fixed_cost_cents + sum(estimates[b].hw_cost_cents
                                        for b in hw_set)
    return PartitionOption(hw_set=hw_set, t_dsp_us=t_dsp, t_hw_us=t_hw,
                           t_total_us=t_total, cost_cents=cost,
                           feasible=t_total < cm.deadline_us)


def enumerate_partitions(estimates: dict, cm: CostModel,
                         pins: dict | None = None) -> list:
    """Evaluate every mapping of the unpinned behaviors, best first.

    pins maps behavior name -> "hw" or "sw" to force one side.  The result
    is sorted by feasibility, then cost, then total time, then mapping size
    and name so the order is fully deterministic.
    """
    if len(estimates) > MAX_BEHAVIORS:
        raise TooManyBehaviors(f"{len(estimates)} behaviors, cap is "
                               f"{MAX_BEHAVIORS}")
    pins = pins or {}
    unknown = pins.keys() - estimates.keys()
    if unknown:
        raise UnknownBehavior(f"pinned but not in the table: {sorted(unknown)}")
    for name, side in pins.items():
        if side not in ("hw", "sw"):
            raise ValueError(f"pin {name}: expected 'hw' or 'sw', got {side!r}")

    forced_hw = {b for b, side in pins.items() if side == "hw"}
    free = [b for b in estimates if b not in pins]
    options = []
    for r in range(len(free) + 1):
        for combo in itertools.combinations(free, r):
            options.append(evaluate(forced_hw | set(combo), estimates, cm))
    options.sort(key=lambda o: (not o.feasible, _option_sort_key(o)))
    return options


def select(options: list, cm: CostModel) -> PartitionOption:
    """Cheapest option beating the deadline; ties go to the faster, then
    the smaller hardware set."""
    if not options:
        raise NoFeasibleOption("no options to select from")
    feasible = [o for o in options if o.t_total_us < cm.deadline_us]
    if not feasible:
        raise NoFeasibleOption(
            f"no mapping beats the {cm.deadline_ms:.1f} ms deadline")
    return min(feasible, key=_option_sort_key)


@dataclass(frozen=True)
class OptionComparison:
    time_delta_pct: float
    cost_delta_pct: float


def compare(a: PartitionOption, b: PartitionOption) -> OptionComparison:
    """How much time the costlier/faster option a buys over b, and at what
    cost increase; both as percentages of a's figures."""
    time_delta = ((b.t_total_us - a.t_total_us) / a.t_total_us * 100.0
                  if a.t_total_us else 0.0)
    cost_delta = ((a.cost_cents - b.cost_cents) / a.cost_cents * 100.0
                  if a.cost_cents else 0.0)
    return OptionComparison(time_delta_pct=time_delta, cost_delta_pct=cost_delta)


def _option_sort_key(o: PartitionOption):
    """Cheapest first; ties go to the faster, then the smaller hardware set,
    then by name."""
    return (o.cost_cents, o.t_total_us, len(o.hw_set), tuple(sorted(o.hw_set)))


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def _money_cents(text: str) -> int:
    value = Fraction(str(text).strip()) * 100
    if value.denominator != 1:
        raise ValueError(f"{text!r}: finer than cents")
    return int(value)


def _ms_to_us(text: str) -> int:
    value = Fraction(str(text).strip()) * 1000
    if value.denominator != 1:
        raise ValueError(f"{text!r}: finer than microseconds")
    return int(value)


# --- scenario files ----------------------------------------------------------

@dataclass
class Scenario:
    """Parsed scenario: estimate table, cost model and optional extras."""

    estimates: dict  # behavior name -> BehaviorEstimate, file order
    cost_model: CostModel
    principal_cycles: dict | None = None  # element name -> total cycles
    hw_total_delta_us: int | None = None  # quoted minus summed hardware time
    sw_total_delta_us: int | None = None
    hw_cost_gap_cents: int | None = None  # nominal price minus share sum


def load_scenario(path) -> Scenario:
    """Parse a scenario file; see the module docstring for the grammar."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # element names in [principal_cycles] keep case
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)

    rows = []
    for section in parser.sections():
        if not section.startswith("behavior "):
            continue
        name = section.split(None, 1)[1].strip()
        sec = parser[section]
        rows.append((name, _ms_to_us(sec["t_hw_ms"]), _ms_to_us(sec["t_sw_ms"]),
                     Fraction(sec["code_size"].strip())))
    if not rows:
        raise ValueError(f"no behavior sections in {path}")
    if "cost_model" not in parser:
        raise ValueError(f"missing [cost_model] section in {path}")

    cm_sec = parser["cost_model"]
    cm = CostModel(
        sw_fixed_cost_cents=_money_cents(cm_sec["sw_fixed_cost"]),
        hw_total_cost_cents=_money_cents(cm_sec["hw_total_cost"]),
        deadline_us=_ms_to_us(cm_sec["deadline_ms"]),
    )

    shares = hw_cost_share({name: size for name, _, _, size in rows},
                           cm.hw_total_cost_cents)
    estimates = {
        name: BehaviorEstimate(name=name, t_hw_us=t_hw, t_sw_us=t_sw,
                               hw_cost_cents=shares[name])
        for name, t_hw, t_sw, _ in rows
    }

    scenario = Scenario(estimates=estimates, cost_model=cm)

    if "nominal_hw_cost" in cm_sec:
        nominal = _money_cents(cm_sec["nominal_hw_cost"])
        scenario.hw_cost_gap_cents = nominal - cm.hw_total_cost_cents

    if "expected_totals" in parser:
        tot = parser["expected_totals"]
        checks = (("hw_total_ms", sum(e.t_hw_us for e in estimates.values()),
                   "hw_total_delta_us"),
                  ("sw_total_ms", sum(e.t_sw_us for e in estimates.values()),
                   "sw_total_delta_us"))
        for key, summed, attr in checks:
            if key not in tot:
                continue
            quoted = _ms_to_us(tot[key])
            delta = quoted - summed
            if abs(delta) > TOTALS_TOLERANCE_US:
                raise ValueError(
                    f"{key}: table sums to {summed / 1000.0:.1f} ms but the "
                    f"quoted total is {quoted / 1000.0:.1f} ms")
            setattr(scenario, attr, delta)

    if "principal_cycles" in parser:
        scenario.principal_cycles = {
            name: int(value) for name, value in parser["principal_cycles"].items()
        }
        negative = [n for n, c in scenario.principal_cycles.items() if c < 0]
        if negative:
            raise ValueError(f"negative principal cycle totals: {negative}")

    return scenario


# --- reporting ----------------------------------------------------------------

def estimates_table_text(scenario: Scenario) -> str:
    """Per-behavior time/cost table with the flagged total deltas."""
    est = scenario.estimates
    names = list(est)
    w = max(len(n) for n in names)
    lines = [f"{'behavior':<{w + 2}}{'t_hw (ms)':>11}{'t_sw (ms)':>11}"
             f"{'hw share ($)':>14}"]
    lines.append("-" * (w + 38))
    for n in names:
        e = est[n]
        lines.append(f"{n:<{w + 2}}{e.t_hw_ms:>11.1f}{e.t_sw_ms:>11.1f}"
                     f"{e.hw_cost_cents / 100.0:>14.2f}")
    hw_sum = sum(e.t_hw_us for e in est.values()) / 1000.0
    sw_sum = sum(e.t_sw_us for e in est.values()) / 1000.0
    share_sum = sum(e.hw_cost_cents for e in est.values()) / 100.0
    lines.append(f"{'total':<{w + 2}}{hw_sum:>11.1f}{sw_sum:>11.1f}"
                 f"{share_sum:>14.2f}")
    if scenario.hw_total_delta_us:
        lines.append(f"note: quoted hardware total differs by "
                     f"{scenario.hw_total_delta_us / 1000.0:+.1f} ms")
    if scenario.sw_total_delta_us:
        lines.append(f"note: quoted software total differs by "
                     f"{scenario.sw_total_delta_us / 1000.0:+.1f} ms")
    if scenario.hw_cost_gap_cents:
        lines.append(f"note: cost shares sum ${share_sum:.2f} against a "
                     f"${(share_sum * 100 + scenario.hw_cost_gap_cents) / 100.0:.2f}"
                     f" component price (gap "
                     f"${scenario.hw_cost_gap_cents / 100.0:.2f})")
    return "\n".join(lines) + "\n"


def options_table_text(options: list, selected: PartitionOption | None = None,
                       title: str = "options") -> str:
    lines = [title,
             f"{'':<2}{'mapped to HW':<22}{'t_dsp (ms)':>12}{'t_hw (ms)':>11}"
             f"{'t_total (ms)':>14}{'cost ($)':>10}  feasible",
             "-" * 76]
    for i, o in enumerate(options, start=1):
        mark = "*" if selected is not None and o == selected else " "
        lines.append(f"{mark:<2}{o.describe_hw_set():<22}{o.t_dsp_ms:>12.1f}"
                     f"{o.t_hw_ms:>11.1f}{o.t_total_ms:>14.1f}"
                     f"{o.cost_usd:>10.2f}  {'yes' if o.feasible else 'no'}")
        if i >= 200:
            lines.append(f"... {len(options) - i} more")
            break
    return "\n".join(lines) + "\n"


def options_table_csv(options: list, selected: PartitionOption | None = None) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["hw_set", "t_dsp_ms", "t_hw_ms", "t_total_ms",
                     "cost_usd", "feasible", "selected"])
    for o in options:
        writer.writerow([o.describe_hw_set(), f"{o.t_dsp_ms:.1f}",
                         f"{o.t_hw_ms:.1f}", f"{o.t_total_ms:.1f}",
                         f"{o.cost_usd:.2f}", int(o.feasible),
                         int(selected is not None and o == selected)])
    return buf.getvalue()
