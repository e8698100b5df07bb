"""The CLI prints the bytes of the committed golden record: every call of
``tools/cli_golden.py``, recorded from this tree, equals its record in
``tools/golden.json`` (exit code, stdout, stderr and any written file)."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tools" / "golden.json"


def _cli_golden():
    spec = importlib.util.spec_from_file_location("cli_golden", ROOT / "tools" / "cli_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_bytes_match_the_golden_record(monkeypatch, tmp_path):
    # record() moves the cwd, prepends src to sys.path and sets COLUMNS and
    # CASIMIR_CONFIG; monkeypatch puts all four back afterwards
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("CASIMIR_CONFIG", raising=False)
    recorded = json.loads(json.dumps(_cli_golden().record(str(ROOT / "src"))))
    committed = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [r["argv"] for r in recorded] == [r["argv"] for r in committed]
    moved = [" ".join(new["argv"]) for new, old in zip(recorded, committed) if new != old]
    assert moved == []


def test_compare_checks_moved_values_against_their_errors(tmp_path, capsys):
    # one CSV and one JSON record: a move inside old err + new err passes,
    # one beyond it fails, whichever format carries it
    def records(csv_value, json_value):
        return [
            {"argv": ["csv"], "code": 0, "stderr": "",
             "stdout": f"a,value,err_estimate,converged\n1,{csv_value},0.001,true\n"},
            {"argv": ["json"], "code": 0, "stderr": "",
             "stdout": json.dumps([{"value": json_value, "err_estimate": 0.001}], indent=2)},
        ]

    def compare(old, new):
        paths = tmp_path / "old.json", tmp_path / "new.json"
        for path, recs in zip(paths, (old, new)):
            path.write_text(json.dumps(recs), encoding="utf-8")
        return _cli_golden().compare(*map(str, paths))

    assert compare(records(1.0, 2.0), records(1.0015, 1.999)) == 0
    assert capsys.readouterr().out.count(": inside") == 2
    assert compare(records(1.0, 2.0), records(1.0015, 2.0025)) == 1
    out = capsys.readouterr().out
    assert "row 1: |delta| 0.002499" in out and out.count(": OUTSIDE") == 1
