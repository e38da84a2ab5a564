"""Byte-for-byte CLI output, pinned against committed golden files.

Each spec is a `constakit` argument list; its expected stdout lives in
tests/golden/<name>.  To re-capture after an intended output change, run
`PYTHONPATH=src python tests/test_cli_golden.py` and review the diff.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from constakit.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

_FACTOR_README = ["factor", "--p", "3", "--n", "4", "--lambda", "2"]
_FACTOR_BINARY = ["factor", "--p", "2", "--n", "15", "--lambda", "1"]
_FACTOR_VECTOR = ["factor", "--p", "3", "--degrees", "2", "--n", "16", "--lambda", "[1,1]"]
_FACTOR_LAZY = ["factor", "--p", "4099", "--n", "2", "--lambda", "2"]
_FACTOR_PAREN = ["factor", "--p", "3", "--degrees", "2", "--n", "5", "--lambda", "1"]
_PRODUCT = ["product", "--p", "2", "--n", "7", "--lambda", "1",
            "--generator", "[1,1,0,1]", "--method", "all"]
_POWERS = ["powers", "--p", "3", "--n", "4", "--lambda", "2", "--generator", "[2,1,1]"]
_VERIFY_README = ["verify", "--grid-q", "[2,3]", "--grid-n", "6"]
_VERIFY_TABULATED = ["verify", "--grid-q", "[8,9]", "--grid-n", "5"]

SPECS = {
    "factor_q3_n4_lam2.json": _FACTOR_README,
    "factor_q2_n15_lam1.json": _FACTOR_BINARY,
    "factor_q2_n15_lam1.csv": _FACTOR_BINARY + ["--format", "csv"],
    "factor_q9_n16_lam11.json": _FACTOR_VECTOR,
    "factor_q9_n16_lam11.txt": _FACTOR_VECTOR + ["--format", "text"],
    "factor_q4099_n2_lam2.json": _FACTOR_LAZY,
    "factor_q9_n5_lam1.txt": _FACTOR_PAREN + ["--format", "text"],
    "product_q2_n7_hamming.json": _PRODUCT,
    "product_q2_n7_hamming.txt": _PRODUCT + ["--format", "text"],
    "powers_q3_n4_lam2.json": _POWERS,
    "powers_q3_n4_lam2.csv": _POWERS + ["--format", "csv"],
    "powers_q3_n4_lam2.txt": _POWERS + ["--format", "text"],
    "verify_q2_q3_n6.json": _VERIFY_README,
    "verify_q8_q9_n5.json": _VERIFY_TABULATED,
    "verify_q8_q9_n5.csv": _VERIFY_TABULATED + ["--format", "csv"],
    "verify_q8_q9_n5.txt": _VERIFY_TABULATED + ["--format", "text"],
}


def _run(argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue().encode()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_cli_output_matches_golden(name):
    rc, out = _run(SPECS[name])
    assert rc == 0
    assert out == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name, argv in sorted(SPECS.items()):
        rc, out = _run(argv)
        if rc != 0:
            sys.exit(f"{name}: exit {rc}")
        (GOLDEN / name).write_bytes(out)
        print(f"wrote {name}")
