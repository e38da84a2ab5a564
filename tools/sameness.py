"""Fingerprint constakit's CLI output, to show a change leaves it byte-identical.

Runs ``constakit.cli.main`` in-process from the ``src/`` tree next to this
script and prints:

* the md5 of ``verify`` stdout on four grids: ``[2,3,5]``/10, ``[4,7]``/8,
  ``[8,9]``/6 and ``[2,3]``/16, and on ``3``/5 with ``--inject-corruption``,
  which pins how ``first_counterexample`` is rendered;
* one md5 over the 816 ``factor`` runs of a fixed grid, and their exit-code
  counts: p in {2, 3, 5, 7, 11, 13}, GF(4), GF(8), GF(9), GF(16), GF(25)
  and GF(4)^2; n = 1 ... 17; lambda in {1, 2, -1, [0,1]}.  Each run adds
  its argv, exit code and stdout to the digest.

Run it in two checkouts and compare the output:

    python3 tools/sameness.py

Standard library only; the full grid takes about 20 s on a 2-core VM.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import sys
from collections import Counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from constakit.cli import main  # noqa: E402

#: (--grid-q, --grid-n, further flags) of each verify run.
VERIFY_RUNS = (
    ("[2,3,5]", 10, ()),
    ("[4,7]", 8, ()),
    ("[8,9]", 6, ()),
    ("[2,3]", 16, ()),
    ("3", 5, ("--inject-corruption",)),
)

#: (p, --degrees) for each field of the factor grid.
FACTOR_FIELDS = (
    (2, None), (3, None), (5, None), (7, None), (11, None), (13, None),
    (2, "[2]"), (2, "[3]"), (3, "[2]"), (2, "[4]"), (5, "[2]"), (2, "[2,2]"),
)
FACTOR_LENGTHS = range(1, 18)
FACTOR_LAMBDAS = ("1", "2", "-1", "[0,1]")


def run(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue().encode()


def factor_argvs():
    for p, degrees in FACTOR_FIELDS:
        field = ["--p", str(p)] + (["--degrees", degrees] if degrees else [])
        for n in FACTOR_LENGTHS:
            for lam in FACTOR_LAMBDAS:
                yield ["factor", *field, "--n", str(n), "--lambda", lam]


def report() -> None:
    for q, n, flags in VERIFY_RUNS:
        rc, out = run(["verify", "--grid-q", q, "--grid-n", str(n), *flags])
        label = " ".join((f"{q}/{n}", *flags))
        print(f"verify {label}: exit {rc} md5 {hashlib.md5(out).hexdigest()}")
    digest, exits = hashlib.md5(), Counter()
    for argv in factor_argvs():
        rc, out = run(argv)
        digest.update(f"{argv} {rc}\n".encode() + out)
        exits[rc] += 1
    counts = ", ".join(f"exit {rc}: {k}" for rc, k in sorted(exits.items()))
    print(f"factor {sum(exits.values())} runs: md5 {digest.hexdigest()}, {counts}")


if __name__ == "__main__":
    report()
