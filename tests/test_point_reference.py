"""The `polarization` and `qfi` point subcommands against committed reference values.

tests/data/point_reference.json holds every row the two subcommands
print, as JSON at 17 significant digits, for a topological chain
(0.3, 0.5, 0.2) and a trivial one (0.5, 0.3, 0.1):
- open chains of N = 7 and N = 8 cells, and a ring of N = 8;
- T = 0, 0.1 and 0.5;
- `polarization` in all three modes, and `qfi`.

N = 8 puts a cell at m = N/2, where cos(theta_m / 2) = cos(pi / 2) is
rounding noise; N = 7 has no such cell.

Tolerances are those of tests/test_sweep_reference.py: P and P_defined
exactly, except the open-chain `literal` and `weighted` P and
magnitudes, which may move by STATE_P_ATOL absolute; every other number
within RTOL relative or ATOL absolute, and the optimal direction within
DIRECTION_ATOL absolute.

Regenerate the file only in a change that means to move these values,
and say which cells moved and why:

    PYTHONPATH=src python tests/test_point_reference.py
"""

import json
from pathlib import Path

import pytest
from test_sweep_reference import DIRECTION_ATOL, STATE_P_ATOL, assert_close

from topo_thermo.cli import EXIT_OK, cli_main
from topo_thermo.polarization import MODE_LITERAL, MODE_WEIGHTED

REFERENCE = Path(__file__).parent / "data" / "point_reference.json"
CHAINS = {"topological": ("0.3", "0.5", "0.2"), "trivial": ("0.5", "0.3", "0.1")}
LATTICES = (("open", 7), ("open", 8), ("periodic", 8))
TEMPERATURES = ("0", "0.1", "0.5")
SUBCOMMANDS = {
    "polarization": ("--mode", "literal", "--mode", "weighted", "--mode", "determinant"),
    "qfi": (),
}
CASES = [
    f"{subcommand}-{boundary}-{n}-{chain}"
    for subcommand in SUBCOMMANDS
    for boundary, n in LATTICES
    for chain in CHAINS
]

EXACT = ("T", "v", "w", "z", "N", "boundary", "mode", "P_defined", "error")
CLOSE = ("M_xx", "M_xy", "M_xz", "M_yy", "M_yz", "M_zz", "i_p", "purity", "entropy")
DIRECTION = ("dir_x", "dir_y", "dir_z")


def _rows(case: str, tmp_dir: Path) -> list[dict]:
    subcommand, boundary, n, chain = case.split("-")
    v, w, z = CHAINS[chain]
    out = tmp_dir / f"{case}.json"
    argv = [
        subcommand, "--n-cells", n, "--v", v, "--w", w, "--z", z, "--boundary", boundary,
        *(arg for temperature in TEMPERATURES for arg in ("-T", temperature)),
        *SUBCOMMANDS[subcommand],
        "--format", "json", "--precision", "17", "--out", str(out),
    ]
    assert cli_main(argv) == EXIT_OK
    return json.loads(out.read_text())


def _column(rows: list[dict], key: str) -> list:
    return [row[key] for row in rows]


@pytest.mark.parametrize("case", CASES)
def test_point_subcommand_matches_reference(case, tmp_path):
    expected = json.loads(REFERENCE.read_text())[case]
    actual = _rows(case, tmp_path)
    assert len(actual) == len(expected) == len(TEMPERATURES) * (3 if "polarization" in case else 1)
    assert [row.keys() for row in actual] == [row.keys() for row in expected]
    for key in EXACT:
        assert _column(actual, key) == _column(expected, key), key
    for key in CLOSE + DIRECTION + ("P", "magnitude"):
        # A null cell stays null; the others compare as numbers.
        assert [x is None for x in _column(actual, key)] == [
            x is None for x in _column(expected, key)
        ], key
    for got, want in zip(actual, expected):
        if want["mode"] is None:  # a qfi row carries no polarization
            continue
        if "-open-" in case and want["mode"] in (MODE_LITERAL, MODE_WEIGHTED):
            assert_close(got["P"], want["P"], rtol=0.0, atol=STATE_P_ATOL)
            assert_close(got["magnitude"], want["magnitude"], atol=STATE_P_ATOL)
        else:
            assert got["P"] == want["P"]
            assert_close(got["magnitude"], want["magnitude"])
    for key in CLOSE + DIRECTION:
        present = [i for i, row in enumerate(expected) if row[key] is not None]
        tolerances = (0.0, DIRECTION_ATOL) if key in DIRECTION else ()
        got, want = ([rows[i][key] for i in present] for rows in (actual, expected))
        assert_close(got, want, *tolerances)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        rows = {case: _rows(case, Path(directory)) for case in CASES}
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(rows, indent=1) + "\n")
