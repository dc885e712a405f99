"""Merge ``BENCH_*.json`` artifacts into one performance-trajectory table.

Every benchmark that runs with ``REPRO_BENCH_JSON`` set writes a
``BENCH_<name>.json`` file (see :func:`benchmarks._harness.write_results`)
carrying its headline series.  Two headlines are judged against a bar
the benchmark asserts in full mode:

* ``median_speedup`` — a mapping of workload family to the measured
  median speedup (or one number) — against ``minimum_speedup``; higher
  is better;
* ``slope`` — a log-log growth exponent, e.g. E1b's mean delay per
  mapping against |d| — against ``maximum_slope``; lower is better.

This tool collects those files — from the repository root, a CI artifact
directory, or any mix of paths — and renders one table, so the perf
trajectory across PRs is a single glance instead of N files.  ``margin``
is how far inside its bar a headline sits: the ratio for a speedup, the
headroom for a slope (negative once over the bar):

    $ python tools/bench_trajectory.py
    benchmark     family   headline  value  bar   margin  mode
    e01_compiled  overall  slope     0.07   0.40  0.33    full
    e26           corpus   speedup   3.86   2.00  1.93x   full

``--json OUT`` additionally writes the merged records for dashboards.
Exit status is 2 when any full-mode headline is on the wrong side of its
bar — a speedup under its minimum or a slope over its maximum (quick
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


#: The judged headlines: (name, value key, bar key, which side is better).
HEADLINES = (
    ("speedup", "median_speedup", "minimum_speedup", "higher"),
    ("slope", "slope", "maximum_slope", "lower"),
)


def trajectory_rows(paths: list[str]) -> tuple[list[dict], list[str]]:
    """One record per (benchmark, headline, family), plus parse problems."""
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
        found = False
        for headline, value_key, bar_key, better in HEADLINES:
            if value_key not in payload and bar_key not in payload:
                continue
            found = True
            values = payload.get(value_key)
            if not isinstance(values, dict):
                values = {"overall": values}
            for family, value in sorted(values.items()):
                rows.append(
                    {
                        "benchmark": name,
                        "family": family,
                        "headline": headline,
                        "value": value,
                        "bar": payload.get(bar_key),
                        "better": better,
                        "quick": quick,
                        "path": path,
                    }
                )
        if not found:
            rows.append(
                {
                    "benchmark": name,
                    "family": "-",
                    "headline": "-",
                    "value": None,
                    "bar": None,
                    "better": None,
                    "quick": quick,
                    "path": path,
                }
            )
    rows.sort(key=lambda row: (row["benchmark"], row["headline"], row["family"]))
    return rows, problems


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _margin(row: dict) -> str:
    value, bar = row["value"], row["bar"]
    if not (_number(value) and _number(bar)):
        return "-"
    if row["better"] == "lower":
        return f"{bar - value:.2f}"
    return f"{value / bar:.2f}x" if bar else "-"


def off_bar(row: dict) -> bool:
    """Whether a full-mode headline is on the wrong side of its bar."""
    value, bar = row["value"], row["bar"]
    if row["quick"] or not (_number(value) and _number(bar)):
        return False
    if row["better"] == "lower":
        return value > bar
    return value < bar


def render(rows: list[dict]) -> str:
    headers = ["benchmark", "family", "headline", "value", "bar", "margin", "mode"]
    table = [
        [
            row["benchmark"],
            row["family"],
            row["headline"],
            _fmt(row["value"]),
            _fmt(row["bar"]),
            _margin(row),
            "quick" if row["quick"] else "full",
        ]
        for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(line[i]) for line in table))
        if table
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for line in table:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(line)))
    return "\n".join(line.rstrip() for line in lines)


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
    failing = [row for row in rows if off_bar(row)]
    for row in failing:
        side, sign = ("OVER", ">") if row["better"] == "lower" else ("UNDER", "<")
        print(
            f"{side} BAR: {row['benchmark']}/{row['family']} {row['headline']} "
            f"{row['value']:.2f} {sign} {row['bar']:.2f}",
            file=sys.stderr,
        )
    return 2 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main())
