"""Each demo script runs to completion; one writes an SVG into the working directory."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# Lines whose numbers follow from the theory the demo illustrates.
EXPECTED_LINES = {
    "01_shift_gadget_identities": [
        "step unitary v = sum_i w^i (x) f_i is unitary: True",
        "Gram diagonal on either side (all entries 1/n^3):",
        "[0.037 0.037 0.037 0.037 0.037 0.037 0.037 0.037 0.037]",
        "  m=1: expected 0.037037, max deviation 0.00e+00",
        "  m=1: 9 elements, rank 9, min gram diag 0.1111, max offdiag 0.00e+00",
        "  m=1, every pair r < s: max Gram disagreement 0.00e+00",
    ],
    "02_commutants_and_spectra": [
        "blocks (3,): left action spans dim 9, its commutant has dim 9 (the right action)",
        "blocks (2, 1): left action spans dim 5, its commutant has dim 5 (the right action)",
        "diagonal masa against itself in M_2: 1 (4 blocks)",
        "scalars against scalars (degenerate, allowed): 4",
        "diagonal of M_2 (x) M_2 against its step-conjugate: 1 (16 blocks)",
        "  M_4: spectrum 1 with 12 blocks (n^2-n = 12)",
        "full spectrum: (1, 1, 1, 1)",
        "corner e_0 J e_1 J: (1,)",
    ],
}


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines
    for line in EXPECTED_LINES.get(path.stem, []):
        assert line in lines
