"""A CLI call pays for the package import before any algebra runs, so the
import loads only what the package runs: not ``dataclasses`` (which pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``) and not ``typing``."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S: the site hook of an installed interpreter may import typing itself.
    probe = "import sys, constakit.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
