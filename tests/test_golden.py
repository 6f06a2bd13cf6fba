"""Byte-for-byte comparison of CLI documents against committed golden files.

Each case is one command line; its document is written to
``tests/golden/<name>`` and must come out identical at every worker count.
The large ``sample`` cases cross the runner's fixed chunk boundary at one
and at two draws per trial.  To regenerate the files after a deliberate
change to the output bytes (name that change in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py

Documents too large to commit are pinned by their SHA-256 in ``DIGESTS``;
the regeneration above prints each digest to paste there.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import pytest

from spincorr.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

PAIR = ("--a", "10,20", "--b", "100,-30", "--deg")
SETTINGS = ("--a", "0,0", "--a-prime", "90,0", "--b", "45,30", "--b-prime", "135,60", "--deg")
SMALL = ("--n", "5001", "--seed", "7")
CHSH = ("--n", "20001", "--seed", "11")
SWEEP = ("--n", "2001", "--seed", "5")

_CASES = {
    "exact-theta": ("exact", "--theta-ab", "60", "--deg"),
    "exact-axis": ("exact", *PAIR, "--r", "45,10"),
    "weights-theta": ("weights", "--theta-ab", "1.1"),
    "weights-pair": ("weights", *PAIR),
    "sample-hv": ("sample", "--theta-ab", "1.0", *SMALL),
    "sample-exact": ("sample", *PAIR, "--model", "exact", *SMALL),
    "sample-transfer": ("sample", *PAIR, "--model", "transfer", *SMALL),
    "chsh-hv": ("chsh", *CHSH),
    "chsh-hv-settings": ("chsh", *SETTINGS, *CHSH),
    "chsh-exact": ("chsh", *SETTINGS, "--model", "exact"),
    "chsh-transfer": ("chsh", "--model", "transfer", *CHSH),
    "chsh-transfer-settings": ("chsh", *SETTINGS, "--model", "transfer", *CHSH),
    "sweep-singlet": ("sweep", "--grid", "0:180:15", "--deg", *SWEEP),
    "sweep-singlet-rad": ("sweep", "--grid", "0.1:3:0.7", "--n", "999", "--seed", "5"),
    # seed 0, n 200: the 90 degree row samples exactly zero (a tie of the channels)
    "sweep-single-electron": ("sweep", "--single-electron", "--grid", "0:180:45", "--deg", "--n", "200"),
    "sweep-single-electron-rad": ("sweep", "--single-electron", "--grid", "0:3.1:0.25", *SWEEP),
}

CASES = {
    f"{name}.{fmt}": (*argv, "--format", fmt) for name, argv in _CASES.items() for fmt in ("csv", "json")
}
# 2**20 + 5 trials: past sixteen fixed-size chunks at one (exact) and two (hv, transfer) draws per trial
for model in ("hv", "exact", "transfer"):
    CASES[f"sample-{model}-1048581.csv"] = (
        "sample", "--theta-ab", "1.2", "--model", model, "--n", "1048581", "--seed", "3"
    )
# The benchmark's chsh runs: 153 chunks per stream, two threads at --workers 2, and
# (under transfer) 393 trials on the float64 fallback of the hemisphere signs.
for model in ("hv", "transfer"):
    CASES[f"chsh-{model}-10000000.csv"] = ("chsh", "--model", model, "--n", "10000000", "--seed", "3")

# The benchmark's sweep-fine-2w document (1801 rows, 238 kB): the exact column over the
# fine grid, near 0 and pi, and 1801 short hv series.
DIGESTS = {
    "sweep-fine.json": (
        ("sweep", "--grid", "0:180:0.1", "--deg", "--n", "2000", "--seed", "3", "--format", "json"),
        "56f55b2b9137be880340dc544e4bc9d877fcb1f49184c68ec76be04feab32b1e",
    ),
}


def _document(argv, workers: int, out: Path) -> bytes:
    assert main([*argv, "--workers", str(workers), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_document_matches_golden_file(name, workers, tmp_path):
    assert _document(CASES[name], workers, tmp_path / name) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_document_matches_golden_digest(name, workers, tmp_path):
    argv, digest = DIGESTS[name]
    assert hashlib.sha256(_document(argv, workers, tmp_path / name)).hexdigest() == digest


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        _document(argv, 1, GOLDEN / name)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, _) in sorted(DIGESTS.items()):
            print(f"{name}: {hashlib.sha256(_document(argv, 1, Path(tmp) / name)).hexdigest()}")
