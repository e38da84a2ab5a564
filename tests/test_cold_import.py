"""A CLI call pays for the package import before any algebra runs, so the
import loads only what the package runs: not ``dataclasses`` (which pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``) and not ``typing``; nor what
only a forked ``verify`` run needs, ``pickle``, or a process pool."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _loaded_by_cli_import(names: set) -> str:
    # -S: the site hook of an installed interpreter may import typing itself.
    probe = f"import sys, constakit.cli; print(sorted({names!r} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    return out.stdout.strip()


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    assert _loaded_by_cli_import({"dataclasses", "inspect", "typing"}) == "[]"


def test_cli_import_loads_no_pickle_or_process_pool():
    assert _loaded_by_cli_import({"pickle", "multiprocessing", "concurrent"}) == "[]"
