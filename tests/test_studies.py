import importlib.util
import json
from pathlib import Path

STUDIES = Path(__file__).resolve().parents[1] / "bench" / "studies"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"study_{name}", STUDIES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_search_cost_prints_one_json_line(capsys):
    # the keys only: the study's numbers are measurements, not gates
    assert _load("search_cost").main(["--size", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {"study", "size", "seed", "searches", "passes", "rows", "budget_exceeded"}
    for key in ("passes", "rows"):
        assert set(record[key]) == {"q1", "median", "q3"}


def test_trap_rates_prints_one_json_line(capsys):
    # the keys only, at the smallest size: 5 points on one seed
    assert _load("trap_rates").main(["--size", "1", "--seeds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {
        "study", "size", "seeds", "points", "misses", "trapped_starts", "haar_starts",
        "trapped_share", "points_with_trapped_starts", "worst_point",
    }
    assert set(record["worst_point"]) == {"channel", "mu", "share"}


def test_mutants_prints_one_json_line(capsys):
    # the keys only, at size 0: the table is checked against the code, no suite runs
    assert _load("mutants").main(["--size", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record == {"study": "mutants", "size": 0, "killed_by": {}, "survivors": []}
