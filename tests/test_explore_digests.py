"""Frozen exit code and stdout SHA-256 of `pcm2pwm explore`.

The bundled run prints the estimate table with its notes (the quoted-total
and cost-gap arithmetic), every mapping and the shortlist with its
trade-off line; a pin, a tighter deadline, CSV and a generated scenario
large enough to cut the mapping table ("... N more") cover the rest.  Any
change to a figure, a column or a separator moves a digest; re-freeze them
only with a change that means to move the report.
"""

import hashlib

import pytest

from pcm2pwm.cli import main


def _nine_behaviors(path):
    """A scenario of 9 behaviors (512 mappings) with uneven sizes."""
    sections = [f"[behavior B{i}]\nt_hw_ms = {10.5 + 7 * i}\n"
                f"t_sw_ms = {21.25 + 13 * i}\ncode_size = {1 + (5 * i) % 7}\n"
                for i in range(9)]
    path.write_text("".join(sections) + "[cost_model]\nsw_fixed_cost = 4.00\n"
                    "hw_total_cost = 12.34\ndeadline_ms = 500\n",
                    encoding="utf-8")
    return str(path)


DIGESTS = {  # case: (explore arguments, stdout SHA-256)
    "bundled": (
        (), "907f2da96b9cbd0bd714da86babd197687556b135b1afcc28af615dc1928c20b"),
    "csv": (
        ("--format", "csv"),
        "99397750c61e2110883c8f44d8da8745c43bae45e453e11fbd1262e618b6ed32"),
    "deadline-3500-pin-S0": (
        ("--deadline-ms", "3500", "--pin", "S0=sw"),
        "a6ed95fcf2bee11ed4851f4de1da9646d8815607bf0cd66abed9f9669266d3d0"),
    "nine-behaviors": (  # the scenario is written per run
        None, "604ba8820b4907913167e7e894d4a9e4bbad86cb84a995f2c8f4aa5f34161c73"),
}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_explore_stdout_digest(case, tmp_path, capsys):
    args, digest = DIGESTS[case]
    if case == "nine-behaviors":
        args = ("--scenario", _nine_behaviors(tmp_path / "nine.scenario"))
    assert main(["explore", *args]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
