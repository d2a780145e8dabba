"""The output comparison tool finds a planted difference."""

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import compare_outputs  # noqa: E402


def _checkout(path):
    shutil.copytree(
        ROOT / "src", path / "src", ignore=shutil.ignore_patterns("__pycache__")
    )
    return path


def test_compare_outputs_names_each_differing_case(tmp_path, monkeypatch, capsys):
    parent = _checkout(tmp_path / "parent")
    change = _checkout(tmp_path / "change")
    cli = change / "src" / "algebroids" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('"left-inverse %s"') == 1
    cli.write_text(text.replace('"left-inverse %s"', '"left inverse %s"'), encoding="utf-8")
    monkeypatch.setattr(
        compare_outputs, "BUNDLED", (("pinv", "--matrix", "R"), ("compose",), ("verify-paper",))
    )
    monkeypatch.setattr(compare_outputs, "SEEDS", ())

    assert compare_outputs.main([str(parent), str(parent)]) == 0
    assert capsys.readouterr().out == "0 of 28 cases differ\n"
    assert compare_outputs.main([str(parent), str(change)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: pinv --matrix R (stdout)",
        "differs: pinv --matrix R --out (out)",
        "differs: pinv --matrix R --json (stdout)",
        "differs: pinv --matrix R --json --out (out)",
        "differs: twisted pinv --matrix R (stdout)",
        "differs: twisted pinv --matrix R --out (out)",
        "differs: twisted pinv --matrix R --json (stdout)",
        "differs: twisted pinv --matrix R --json --out (out)",
        "8 of 28 cases differ",
    ]
