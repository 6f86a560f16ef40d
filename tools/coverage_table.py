#!/usr/bin/env python
"""Render a per-package coverage table from a ``coverage.json`` report.

CI's coverage lane runs pytest with ``--cov-report=json`` and pipes the
result through this script, which aggregates line coverage per
``repro.<subpackage>`` and emits a GitHub-flavoured markdown table —
appended to ``$GITHUB_STEP_SUMMARY`` when that variable is set (i.e. in
Actions), printed to stdout otherwise.  The whole-tree floor is
enforced by ``--cov-fail-under``; this table is the per-package
breakdown that tells you *where* the next uncovered lines live.

Usage::

    PYTHONPATH=src python -m pytest --cov=repro --cov-report=json
    python tools/coverage_table.py coverage.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict
from pathlib import Path


def package_of(path: str) -> str:
    """Map a measured file path to its ``repro.<subpackage>`` bucket."""
    parts = Path(path).parts
    try:
        i = parts.index("repro")
    except ValueError:
        return "(other)"
    if i + 2 < len(parts):
        return f"repro.{parts[i + 1]}"
    return "repro"  # top-level modules: __main__.py, __init__.py


def missing_packages(report: dict, src_root: Path) -> list[str]:
    """Subpackages on disk that the report never measured.

    A package nobody imports produces no entry in ``coverage.json`` at
    all, so it would silently vanish from the table — 0% coverage
    reading as "nothing to report".
    """
    measured = {package_of(p) for p in report["files"]}
    repro_dir = src_root / "repro"
    if not repro_dir.is_dir():
        return []
    on_disk = {
        f"repro.{d.name}"
        for d in repro_dir.iterdir()
        if d.is_dir() and (d / "__init__.py").exists()
    }
    return sorted(on_disk - measured)


def build_rows(report: dict) -> list[tuple[str, int, int, float]]:
    """(package, covered, statements, percent) per package, worst first."""
    covered: dict[str, int] = defaultdict(int)
    statements: dict[str, int] = defaultdict(int)
    for path, data in report["files"].items():
        summary = data["summary"]
        pkg = package_of(path)
        covered[pkg] += summary["covered_lines"]
        statements[pkg] += summary["num_statements"]
    rows = [
        (pkg, covered[pkg], statements[pkg],
         100.0 * covered[pkg] / statements[pkg] if statements[pkg] else 100.0)
        for pkg in statements
    ]
    rows.sort(key=lambda r: (r[3], r[0]))
    return rows


def render(rows: list[tuple[str, int, int, float]]) -> str:
    lines = [
        "### Coverage by package",
        "",
        "| package | covered | statements | % |",
        "|---|---:|---:|---:|",
    ]
    total_cov = sum(r[1] for r in rows)
    total_stmt = sum(r[2] for r in rows)
    for pkg, cov, stmt, pct in rows:
        lines.append(f"| `{pkg}` | {cov} | {stmt} | {pct:.1f} |")
    pct = 100.0 * total_cov / total_stmt if total_stmt else 100.0
    lines.append(f"| **total** | {total_cov} | {total_stmt} | **{pct:.1f}** |")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", nargs="?", default="coverage.json",
                        help="path to coverage.py's JSON report")
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="source root checked for unmeasured packages")
    args = parser.parse_args(argv)
    try:
        report = json.loads(Path(args.report).read_text())
    except FileNotFoundError:
        print(f"error: {args.report} not found — run pytest with "
              "--cov-report=json first", file=sys.stderr)
        return 1
    absent = missing_packages(report, args.src)
    if absent:
        print(
            "error: packages on disk but absent from the coverage "
            f"report: {', '.join(absent)} — the measured suite never "
            "imported them",
            file=sys.stderr,
        )
        return 1
    table = render(build_rows(report))
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as fh:
            fh.write(table)
    print(table, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
