"""tools/bench_trajectory.py judges every headline against its bar.

Speedups are judged against ``minimum_speedup`` (higher is better) and
slopes against ``maximum_slope`` (lower is better); only full-mode runs
can fail the table.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOL = REPO_ROOT / "tools" / "bench_trajectory.py"


def _run(directory: Path, payloads: dict[str, dict]) -> subprocess.CompletedProcess:
    for name, payload in payloads.items():
        (directory / f"BENCH_{name}.json").write_text(
            json.dumps({"benchmark": name, **payload}), encoding="utf-8"
        )
    return subprocess.run(
        [sys.executable, str(TOOL), str(directory)],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_slope_and_speedup_headlines_inside_their_bars(tmp_path):
    completed = _run(
        tmp_path,
        {
            "e01_compiled": {"quick": False, "slope": 0.07, "maximum_slope": 0.4},
            "e26": {
                "quick": False,
                "median_speedup": {"corpus": 3.86},
                "minimum_speedup": 2.0,
            },
        },
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    assert lines[0].split() == [
        "benchmark", "family", "headline", "value", "bar", "margin", "mode"
    ]
    assert lines[1].split() == [
        "e01_compiled", "overall", "slope", "0.07", "0.40", "0.33", "full"
    ]
    assert lines[2].split() == ["e26", "corpus", "speedup", "3.86", "2.00", "1.93x", "full"]


def test_a_full_mode_slope_over_its_bar_fails(tmp_path):
    completed = _run(
        tmp_path, {"e01_compiled": {"quick": False, "slope": 0.52, "maximum_slope": 0.4}}
    )
    assert completed.returncode == 2
    assert "OVER BAR: e01_compiled/overall slope 0.52 > 0.40" in completed.stderr


def test_a_full_mode_speedup_under_its_bar_fails(tmp_path):
    completed = _run(
        tmp_path,
        {"e26": {"quick": False, "median_speedup": {"corpus": 1.2}, "minimum_speedup": 2.0}},
    )
    assert completed.returncode == 2
    assert "UNDER BAR: e26/corpus speedup 1.20 < 2.00" in completed.stderr


def test_quick_runs_are_reported_not_judged(tmp_path):
    completed = _run(
        tmp_path,
        {
            "e01_compiled": {"quick": True, "slope": 0.9, "maximum_slope": 0.4},
            "e19": {"quick": True, "median_speedup": 3.1, "minimum_speedup": 5},
        },
    )
    assert completed.returncode == 0, completed.stderr
    assert "-0.50" in completed.stdout and "quick" in completed.stdout
