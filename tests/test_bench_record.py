"""tools/bench_record.py on canned perfbench output; no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", PATH)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

METRICS = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def run_output(correct=True, wall=0.5, setup=0.1, rss=36.5):
    """What ``perfbench/run.py --workload moments_generic --trace 0`` prints."""
    result = {
        "correct": correct,
        "attempted": 24,
        "failed": 0 if correct else 1,
        "metrics": {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }
    return (
        "moments_generic seed 1: 3 round(s), attempted 24, failed 0; "
        f"untraced walls [{wall:.3f}, {wall:.3f}] s\n"
        f"  setup_s                          {setup:.6g} s\n"
        + json.dumps(result)
        + "\n"
    )


def record(side, walls, correct=None):
    correct = correct or [True] * len(walls)
    rounds = [
        bench_record.round_record(seed, True, 0, run_output(ok, wall))
        for seed, (wall, ok) in enumerate(zip(walls, correct), start=1)
    ]
    return {
        "label": "t",
        "side": side,
        "host": {"git_revision": "abc", "git_dirty": side == "change"},
        "workloads": {"moments_generic": bench_record.workload_entry(rounds, METRICS)},
    }


class TestParsing:
    @pytest.mark.parametrize("text, seeds", [("3-5", [3, 4, 5]), ("7", [7]), ("0-0", [0])])
    def test_seeds(self, text, seeds):
        assert bench_record.parse_seeds(text) == seeds

    @pytest.mark.parametrize("text", ["5-3", "a", "-1", "1-", "1,2"])
    def test_bad_seeds(self, text):
        with pytest.raises(ValueError, match="seeds must be"):
            bench_record.parse_seeds(text)

    def test_last_json_line_is_the_result(self):
        result = bench_record.last_json(run_output(wall=0.25) + "\n")
        assert result["correct"] is True
        assert result["metrics"]["wall_s"]["value"] == 0.25
        assert bench_record.last_json("perfbench: set-up failed\n") is None

    def test_correct_round(self):
        r = bench_record.round_record(4, False, 0, run_output(wall=0.3, rss=36.0))
        assert r["correct"] and r["seed"] == 4 and r["first"] is False
        assert r["metrics"] == {"setup_s": 0.1, "wall_s": 0.3, "peak_rss_mb": 36.0}

    @pytest.mark.parametrize(
        "code, stdout", [(0, run_output(correct=False)), (2, run_output()), (2, "boom\n")]
    )
    def test_failed_round_is_kept_as_failed(self, code, stdout):
        r = bench_record.round_record(1, True, code, stdout)
        assert r["correct"] is False and r["exit"] == code
        assert ("error" in r) == (stdout == "boom\n")


class TestStatistics:
    def test_summary(self):
        s = bench_record.summary([float(v) for v in range(10, 0, -1)])
        assert s == {"median": 5.5, "q1": 3.25, "q3": 7.75, "count": 10}
        assert bench_record.summary([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "count": 1}
        assert bench_record.summary([])["count"] == 0

    def test_failed_round_is_listed_but_not_counted(self):
        entry = record("parent", [1.0, 9.0, 2.0, 3.0], [True, False, True, True])[
            "workloads"
        ]["moments_generic"]
        assert entry["failed_rounds"] == 1 and len(entry["rounds"]) == 4
        assert [r["metrics"]["wall_s"] for r in entry["rounds"]] == [1.0, 9.0, 2.0, 3.0]
        wall = entry["metrics"]["wall_s"]
        assert wall == {"unit": "s", "median": 2.0, "q1": 1.5, "q3": 2.5, "count": 3}


class TestCompare:
    def test_table(self):
        a = record("parent", [1.0, 1.0, 1.0, 1.2])
        b = record("change", [0.9, 0.8, 1.1, 0.7])
        lines = bench_record.compare_lines(a, b, METRICS)
        assert lines[0] == "t parent (abc) -> t change (abc, dirty True)"
        assert lines[1] == "moments_generic: failed rounds 0/4 -> 0/4"
        wall = next(line for line in lines if line.startswith("  wall_s"))
        assert wall == (
            "  wall_s: 1 [1, 1.05] -> 0.85 [0.775, 0.95] s "
            "(-15.0%, 3/4 lower; within its 25% bound)"
        )

    def test_outside_bound_and_failed_pairs(self):
        a = record("parent", [1.0, 1.0, 1.0])
        b = record("change", [1.3, 0.5, 1.3], [True, False, True])
        lines = bench_record.compare_lines(a, b, METRICS)
        assert "failed rounds 0/3 -> 1/3" in lines[1]
        wall = next(line for line in lines if line.startswith("  wall_s"))
        # the failed seed pairs with nothing, though its 0.5 reads lower
        assert "(+30.0%, 0/2 lower; OUTSIDE its 25% bound)" in wall

    def test_command_reads_files(self, tmp_path, capsys):
        paths = []
        for side, walls in (("parent", [1.0, 1.0]), ("change", [0.5, 0.5])):
            paths.append(tmp_path / f"{side}.json")
            paths[-1].write_text(json.dumps(record(side, walls)))
        assert bench_record.main(["compare", *map(str, paths)]) == 0
        assert "(-50.0%, 2/2 lower" in capsys.readouterr().out
        assert bench_record.main(["compare", str(tmp_path / "none.json"), str(paths[0])]) == 1
        assert capsys.readouterr().err.startswith("error: ")
