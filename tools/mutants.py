"""Run the committed mutation table against the tests that should kill it.

    python3 tools/mutants.py

``tools/mutants.json`` lists named mutants.  Each entry gives a ``file``
(relative to the checkout root), the exact ``old`` text, the ``new`` text
that replaces it, and the ``tests`` (pytest paths or node ids) that should
fail on it; an entry with a ``survives`` key is a known survivor, and the
key says why no test kills it yet.

For each mutant the script copies ``src/``, ``tests/``, ``tools/``,
``perfbench/`` and ``pyproject.toml`` into a temporary directory without
``__pycache__``, requires the old text to occur exactly once in the file,
applies the mutant there, and runs ``pytest -q -x`` on the named tests with
a timeout, writing no bytecode.  It prints ``killed`` (the tests failed or
could not be collected), ``survived`` or ``timeout`` per mutant, then one
fingerprint line: the md5 over every "name outcome" line and the count of
each outcome.  It exits 1 when a mutant not marked as a known survivor
survives or times out.  Standard library only; the table ran in well under
a minute on a 2-core VM.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tools" / "mutants.json"
#: What the named tests need of the checkout, copied fresh for each mutant.
COPIED = ("src", "tests", "tools", "perfbench", "pyproject.toml")
TIMEOUT_S = 300


def mutated(entry: dict) -> str:
    """The text of the entry's file with the mutant applied; ValueError
    unless the old text occurs exactly once."""
    text = (ROOT / entry["file"]).read_text()
    count = text.count(entry["old"])
    if count != 1:
        raise ValueError(f"{entry['name']}: old text occurs {count} times in {entry['file']}")
    return text.replace(entry["old"], entry["new"])


def run_mutant(entry: dict) -> str:
    """'killed', 'survived' or 'timeout' for one entry, run in a fresh copy."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="mutant-") as copy:
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, Path(copy) / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / name, copy)
        (Path(copy) / entry["file"]).write_text(mutated(entry))
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *entry["tests"]]
        try:
            done = subprocess.run(argv, cwd=copy, capture_output=True, text=True,
                                  env=env, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
    if done.returncode == 0:
        return "survived"
    if done.returncode in (1, 2):  # tests failed, or collection or import failed
        return "killed"
    raise RuntimeError(f"{entry['name']}: pytest exited {done.returncode}\n{done.stdout[-2000:]}")


def main() -> int:
    table = json.loads(TABLE.read_text())
    lines, outcomes, unexpected = [], Counter(), []
    for entry in table:
        outcome = run_mutant(entry)
        outcomes[outcome] += 1
        if outcome != "killed" and "survives" not in entry:
            unexpected.append(entry["name"])
        known = " (known survivor)" if "survives" in entry else ""
        lines.append(f"{entry['name']} {outcome}")
        print(f"{entry['name']}: {outcome}{known}", flush=True)
    digest = hashlib.md5("".join(line + "\n" for line in lines).encode()).hexdigest()
    counts = ", ".join(f"{k}: {outcomes[k]}" for k in ("killed", "survived", "timeout"))
    print(f"{len(table)} mutants: md5 {digest}, {counts}")
    if unexpected:
        print("not killed: " + ", ".join(unexpected), file=sys.stderr)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
