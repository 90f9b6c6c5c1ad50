"""The drift check's report of runs that differ only in their numbers."""

import math
import shutil
import subprocess
from pathlib import Path

import pytest

from tests.drift import ROOT, _number_drift, _tree


def test_csv_table_drift_is_counted_per_column_in_ulps():
    old = "z,y,dy\n0,1,0.5\n1,2,0.25\n2,3,-1\n"
    new = "z,y,dy\n0,1,0.50000000000000011\n1,2,0.25\n2,3,-1.0000000000000004\n"
    assert _number_drift(old, new, True) == {"dy": (2, 2)}


def test_json_drift_is_counted_per_key_path():
    old = '{"t": [0.1, 0.2], "status": {"vanishing_time": 1.0, "status": "vanished"}}'
    new = old.replace("1.0,", "1.0000000000000002,")
    assert _number_drift(old, new, False) == {"status.vanishing_time": (1, 1)}
    # JSON lines, as a run's stdout writes them; NaN against a number is
    # infinitely far
    assert _number_drift('{"a": 1.5}\n{"b": NaN}\n', '{"a": 1.5}\n{"b": 2.0}\n',
                         False) == {"b": (1, math.inf)}


def test_any_other_difference_is_no_number_drift():
    for old, new, table in (
            ("z,y\n0,1\n", "z,dy\n0,1\n", True),            # a renamed column
            ("z,y\n0,1\n", "z,y\n0,1\n1,2\n", True),        # a row more
            ("z,y\n0,1\n", "z,y\n0,one\n", True),           # text for a number
            ('{"ok": true}', '{"ok": false}', False),       # a bool
            ('{"s": "a"}', '{"s": "b"}', False),            # a string
            ('{"v": 1.0}', '{"v": null}', False),           # a null
            ('{"v": [1.0]}', '{"v": [1.0, 2.0]}', False),   # a longer list
            ("z,y\n0,1\n", "z,y\n0,1.0\n", True),           # the same numbers
            ("not json", "not json either", False)):
        assert _number_drift(old, new, table) is None, (old, new)


def test_a_git_revision_is_extracted_while_it_runs_and_removed():
    if shutil.which("git") is None or subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("not a git checkout")
    with _tree("HEAD") as tree:
        assert (Path(tree) / "nssol" / "__init__.py").is_file()
    assert not Path(tree).exists()
    with _tree("src") as tree:  # a directory is used as it is
        assert tree == "src"
