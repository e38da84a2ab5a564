"""tools/mutants.json still applies to the code: checked without running pytest.

The mutation tool refuses an entry whose old text does not occur exactly once,
and pytest refuses a test node that is gone, so a table entry that no longer
matches its file or names a deleted test would stop the tool.  The
script is loaded from its file, as it is not a package module.
"""

import importlib.util
import json
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants", _ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_every_mutant_applies_once_to_its_file():
    table = json.loads(mutants.TABLE.read_text())
    assert len({entry["name"] for entry in table}) == len(table)
    for entry in table:
        assert entry["old"] != entry["new"], entry["name"]
        mutants.mutated(entry)  # raises unless the old text occurs exactly once
        for test in entry["tests"]:
            path, _, node = test.partition("::")
            assert (_ROOT / path).is_file(), (entry["name"], test)
            assert not node or f"def {node}(" in (_ROOT / path).read_text(), (entry["name"], test)
