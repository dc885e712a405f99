"""Merge ``BENCH_*.json`` artifacts into one performance-trajectory table.

Every benchmark that runs with ``REPRO_BENCH_JSON`` set writes a
``BENCH_<name>.json`` file (see :func:`benchmarks._harness.write_results`)
carrying its headline series — most importantly ``median_speedup``, a
mapping of workload family to the measured median speedup, and
``minimum_speedup``, the bar the benchmark asserts in full mode.  This
tool collects those files — from the repository root, a CI artifact
directory, or any mix of paths — and renders one table, so the perf
trajectory across PRs is a single glance instead of N files:

    $ python tools/bench_trajectory.py
    benchmark  family       median  minimum  margin  mode
    e26        corpus       3.86    2.00     1.93x   full
    e27        cluster      1.72    1.50     1.15x   full

``--json OUT`` additionally writes the merged records for dashboards.
Exit status is 2 when any full-mode benchmark is under its bar (quick
runs are reported but never judged — CI smoke numbers are not
measurements).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def collect(paths: list[str]) -> list[str]:
    """Expand files, directories, and globs into BENCH json paths."""
    found: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            found.extend(sorted(glob.glob(os.path.join(path, "BENCH_*.json"))))
        elif os.path.isfile(path):
            found.append(path)
        else:
            found.extend(sorted(glob.glob(path)))
    seen: set[str] = set()
    unique = []
    for path in found:
        resolved = os.path.abspath(path)
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def trajectory_rows(paths: list[str]) -> tuple[list[dict], list[str]]:
    """One record per (benchmark, family) headline, plus parse problems."""
    rows: list[dict] = []
    problems: list[str] = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as error:
            problems.append(f"{path}: {error}")
            continue
        name = payload.get("benchmark") or os.path.basename(path)
        quick = bool(payload.get("quick"))
        minimum = payload.get("minimum_speedup")
        medians = payload.get("median_speedup")
        if not isinstance(medians, dict):
            medians = {"overall": medians} if medians is not None else {}
        if not medians:
            rows.append(
                {
                    "benchmark": name,
                    "family": "-",
                    "median_speedup": None,
                    "minimum_speedup": minimum,
                    "quick": quick,
                    "path": path,
                }
            )
        for family, median in sorted(medians.items()):
            rows.append(
                {
                    "benchmark": name,
                    "family": family,
                    "median_speedup": median,
                    "minimum_speedup": minimum,
                    "quick": quick,
                    "path": path,
                }
            )
    rows.sort(key=lambda row: (row["benchmark"], row["family"]))
    return rows, problems


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render(rows: list[dict]) -> str:
    headers = ["benchmark", "family", "median", "minimum", "margin", "mode"]
    table = []
    for row in rows:
        median = row["median_speedup"]
        minimum = row["minimum_speedup"]
        margin = (
            f"{median / minimum:.2f}x"
            if isinstance(median, (int, float))
            and isinstance(minimum, (int, float))
            and minimum
            else "-"
        )
        table.append(
            [
                row["benchmark"],
                row["family"],
                _fmt(median),
                _fmt(minimum),
                margin,
                "quick" if row["quick"] else "full",
            ]
        )
    widths = [
        max(len(headers[i]), *(len(line[i]) for line in table))
        if table
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for line in table:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(line)))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Merge BENCH_*.json files into one trajectory table."
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["."],
        help="files, directories, or globs holding BENCH_*.json (default: .)",
    )
    parser.add_argument(
        "--json",
        metavar="OUT",
        default=None,
        help="also write the merged records as JSON to OUT ('-' for stdout)",
    )
    arguments = parser.parse_args(argv)
    paths = collect(arguments.paths or ["."])
    if not paths:
        print("no BENCH_*.json files found", file=sys.stderr)
        return 1
    rows, problems = trajectory_rows(paths)
    print(render(rows))
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    if arguments.json is not None:
        merged = json.dumps({"trajectory": rows}, indent=2, sort_keys=True)
        if arguments.json == "-":
            print(merged)
        else:
            with open(arguments.json, "w", encoding="utf-8") as handle:
                handle.write(merged + "\n")
    under = [
        row
        for row in rows
        if not row["quick"]
        and isinstance(row["median_speedup"], (int, float))
        and isinstance(row["minimum_speedup"], (int, float))
        and row["median_speedup"] < row["minimum_speedup"]
    ]
    for row in under:
        print(
            f"UNDER BAR: {row['benchmark']}/{row['family']} "
            f"{row['median_speedup']:.2f} < {row['minimum_speedup']:.2f}",
            file=sys.stderr,
        )
    return 2 if under else 0


if __name__ == "__main__":
    raise SystemExit(main())
