"""Byte-for-byte CLI output, pinned against committed golden files.

Each spec is a `constakit` argument list and its exit code; its expected
stdout lives in tests/golden/<name>.  Bad input is pinned too: exit 2 with
a JSON error object, under a DEADLINE_S alarm, so that a refusal that does
not come fails the test instead of hanging the suite.  To re-capture after
an intended output change, run `PYTHONPATH=src python
tests/test_cli_golden.py` and review the diff.
"""

import contextlib
import io
import pathlib
import signal
import sys

import pytest

from constakit.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
DEADLINE_S = 10

_FACTOR_README = ["factor", "--p", "3", "--n", "4", "--lambda", "2"]
_FACTOR_BINARY = ["factor", "--p", "2", "--n", "15", "--lambda", "1"]
_FACTOR_VECTOR = ["factor", "--p", "3", "--degrees", "2", "--n", "16", "--lambda", "[1,1]"]
_FACTOR_LAZY = ["factor", "--p", "4099", "--n", "2", "--lambda", "2"]
_FACTOR_PAREN = ["factor", "--p", "3", "--degrees", "2", "--n", "5", "--lambda", "1"]
_PRODUCT = ["product", "--p", "2", "--n", "7", "--lambda", "1",
            "--generator", "[1,1,0,1]", "--method", "all"]
_POWERS = ["powers", "--p", "3", "--n", "4", "--lambda", "2", "--generator", "[2,1,1]"]
_POWERS_GEN_SET = ["powers", "--p", "2", "--n", "7", "--lambda", "1", "--gen-set", "[0,3,5,6]"]
_VERIFY_README = ["verify", "--grid-q", "[2,3]", "--grid-n", "6"]
_VERIFY_TABULATED = ["verify", "--grid-q", "[8,9]", "--grid-n", "5"]

SPECS = {
    "factor_q3_n4_lam2.json": (_FACTOR_README, 0),
    "factor_q2_n15_lam1.json": (_FACTOR_BINARY, 0),
    "factor_q2_n15_lam1.csv": (_FACTOR_BINARY + ["--format", "csv"], 0),
    "factor_q9_n16_lam11.json": (_FACTOR_VECTOR, 0),
    "factor_q9_n16_lam11.txt": (_FACTOR_VECTOR + ["--format", "text"], 0),
    "factor_q4099_n2_lam2.json": (_FACTOR_LAZY, 0),
    # delta of order 3 * 1000002 in the vector level GF(p^3): its powers are
    # memoized one at a time, and lam's exponent is found by a walk in F_p
    "factor_q1000003_n3_lam5.json": (
        ["factor", "--p", "1000003", "--n", "3", "--lambda", "5"], 0),
    "factor_q9_n5_lam1.txt": (_FACTOR_PAREN + ["--format", "text"], 0),
    "product_q2_n7_hamming.json": (_PRODUCT, 0),
    "product_q2_n7_hamming.txt": (_PRODUCT + ["--format", "text"], 0),
    "powers_q3_n4_lam2.json": (_POWERS, 0),
    "powers_q3_n4_lam2.csv": (_POWERS + ["--format", "csv"], 0),
    "powers_q3_n4_lam2.txt": (_POWERS + ["--format", "text"], 0),
    "verify_q2_q3_n6.json": (_VERIFY_README, 0),
    "verify_q8_q9_n5.json": (_VERIFY_TABULATED, 0),
    "verify_q8_q9_n5.csv": (_VERIFY_TABULATED + ["--format", "csv"], 0),
    "verify_q8_q9_n5.txt": (_VERIFY_TABULATED + ["--format", "text"], 0),
    "product_q2_n7_hamming.csv": (_PRODUCT + ["--format", "csv"], 0),
    "product_q2_n7_hamming_oracle.json": (_PRODUCT[:-1] + ["oracle"], 0),
    "powers_q2_n7_gen_set.json": (_POWERS_GEN_SET, 0),
    # the full code: k = n, so its generating set, all of Z_7, has bias 0
    "powers_q2_n7_full.json": (_POWERS_GEN_SET[:-1] + ["[0,1,2,3,4,5,6]"], 0),
    "error_factor_p4.json": (["factor", "--p", "4", "--n", "3", "--lambda", "1"], 2),
    "error_factor_degrees0.json": (
        ["factor", "--p", "3", "--degrees", "[0]", "--n", "4", "--lambda", "2"], 2),
    "error_factor_lambda0.json": (["factor", "--p", "3", "--n", "4", "--lambda", "0"], 2),
    "error_factor_lambda_json.json": (["factor", "--p", "3", "--n", "4", "--lambda", "{"], 2),
    "error_factor_lambda_residue.json": (
        ["factor", "--p", "3", "--degrees", "2", "--n", "4", "--lambda", "[1,5]"], 2),
    "error_factor_q2_n67.json": (["factor", "--p", "2", "--n", "67", "--lambda", "1"], 2),
    "error_factor_p_above_cap.json": (
        ["factor", "--p", "318665857834031151167461", "--n", "2", "--lambda", "1"], 2),
    "error_product_not_divisor.json": (
        ["product", "--p", "3", "--n", "4", "--lambda", "2", "--generator", "[1,1]"], 2),
    # lam's exponent in the (F_p, 2) family, delta of order 2 * 1000002, is
    # found by a walk in F_p before the closure check refuses the set
    "error_product_q1000003_n2_not_closed.json": (
        ["product", "--p", "1000003", "--n", "2", "--lambda", "5", "--gen-set", "[0]",
         "--method", "all"], 2),
    "error_powers_zero_code.json": (
        ["powers", "--p", "2", "--n", "3", "--lambda", "1", "--generator", "[1,0,0,1]"], 2),
    "error_verify_q6.json": (["verify", "--grid-q", "[6]", "--grid-n", "4"], 2),
    # n >= 2**64: refused before ord_n(2), let alone 2**ord_n(2), is computed
    "error_factor_q2_n1e30.json": (
        ["factor", "--p", "2", "--n", "1000000000000000000000000000001", "--lambda", "1"], 2),
    # 2**20000: refused from bit lengths, without printing a 6,021-digit number
    "error_factor_degrees20000.json": (
        ["factor", "--p", "2", "--degrees", "20000", "--n", "3", "--lambda", "1"], 2),
    # n = 100000000000000000039 * 300000000000000000053: refused before it is factored
    "error_factor_n_semiprime.json": (
        ["factor", "--p", "2", "--n", "30000000000000000017000000000000000002067",
         "--lambda", "1"], 2),
    # n = 2**61 - 1 splits in GF(2^61), within the cap: refused by length
    # before a basis builds its n-entry point table
    "error_factor_n_2e61.json": (
        ["factor", "--p", "2", "--n", "2305843009213693951", "--lambda", "1"], 2),
    # ... and before x^n - 1 is formed to check that the generator divides it
    "error_product_n_2e61.json": (
        ["product", "--p", "2", "--n", "2305843009213693951", "--lambda", "1",
         "--generator", "[1,1]"], 2),
}


class _Deadline(Exception):
    """Not a ValueError or OSError, so main does not turn it into exit 2."""


def _raise_deadline(signum, frame):
    raise _Deadline(f"no answer within {DEADLINE_S} s")


def _run(argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue().encode()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_cli_output_matches_golden(name):
    argv, expected_rc = SPECS[name]
    if expected_rc == 2:
        previous = signal.signal(signal.SIGALRM, _raise_deadline)
        signal.alarm(DEADLINE_S)
    try:
        rc, out = _run(argv)
    finally:
        if expected_rc == 2:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    assert rc == expected_rc
    assert out == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name, (argv, expected_rc) in sorted(SPECS.items()):
        rc, out = _run(argv)
        if rc != expected_rc:
            sys.exit(f"{name}: exit {rc}, expected {expected_rc}")
        (GOLDEN / name).write_bytes(out)
        print(f"wrote {name}")
