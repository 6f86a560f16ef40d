#!/usr/bin/env python
"""Compare two bench payloads and gate on regressions.

Diffs two JSON payloads written by ``tools/bench.py --out``, prints a
per-op table of mean/p50/peak-RSS deltas, and exits nonzero when any
*gated* op's mean regressed past the threshold::

    PYTHONPATH=src python tools/bench_compare.py BENCH_old.json BENCH_new.json
    ... --gate bench_steady_state_1k bench_steady_state_256node --threshold 1.25
    ... --gate-all    # gate every op present in both payloads

Ops present in only one payload are listed but never gated.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

DEFAULT_GATE = ("bench_steady_state_1k",)
DEFAULT_THRESHOLD = 1.25


def load_payload(path: str | Path) -> dict:
    payload = json.loads(Path(path).read_text())
    if "ops" not in payload or not isinstance(payload["ops"], dict):
        raise ValueError(f"{path}: not a bench payload (no 'ops' table)")
    return payload


def _fmt_ratio(ratio: float | None) -> str:
    if ratio is None:
        return "      -"
    return f"{ratio:6.2f}x"


def compare_payloads(
    baseline: dict,
    candidate: dict,
    *,
    gate: tuple[str, ...] = DEFAULT_GATE,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[list[str], list[str]]:
    """Return (report lines, gated-op failure lines)."""
    base_ops = baseline["ops"]
    cand_ops = candidate["ops"]
    names = sorted(set(base_ops) | set(cand_ops))
    lines = [
        f"baseline: {baseline.get('date', '?')}  candidate: "
        f"{candidate.get('date', '?')}",
        f"{'op':<34} {'base mean':>11} {'cand mean':>11} {'mean':>7} "
        f"{'p50':>7} {'rss':>7}",
    ]
    failures: list[str] = []
    for name in names:
        base = base_ops.get(name)
        cand = cand_ops.get(name)
        if base is None or cand is None:
            side = "baseline" if cand is None else "candidate"
            lines.append(f"{name:<34} (only in {side})")
            continue

        def ratio(key: str) -> float | None:
            b, c = base.get(key), cand.get(key)
            if not b or c is None:
                return None
            return c / b

        mean_r = ratio("mean_s")
        lines.append(
            f"{name:<34} {base['mean_s'] * 1e3:9.1f}ms {cand['mean_s'] * 1e3:9.1f}ms "
            f"{_fmt_ratio(mean_r)} {_fmt_ratio(ratio('p50'))} "
            f"{_fmt_ratio(ratio('peak_rss'))}"
        )
        if name in gate and mean_r is not None and mean_r > threshold:
            failures.append(
                f"REGRESSION {name}: mean {base['mean_s'] * 1e3:.1f} ms -> "
                f"{cand['mean_s'] * 1e3:.1f} ms ({mean_r:.2f}x > "
                f"{threshold:.2f}x threshold)"
            )
    missing_gates = [g for g in gate if g not in base_ops or g not in cand_ops]
    for g in missing_gates:
        failures.append(f"REGRESSION {g}: gated op missing from a payload")
    return lines, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline bench JSON payload")
    parser.add_argument("candidate", help="candidate bench JSON payload")
    parser.add_argument(
        "--gate",
        nargs="+",
        default=list(DEFAULT_GATE),
        help="ops whose mean regression fails the run "
        f"(default: {' '.join(DEFAULT_GATE)})",
    )
    parser.add_argument(
        "--gate-all",
        action="store_true",
        help="gate every op present in both payloads",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"mean-time ratio that fails a gated op (default {DEFAULT_THRESHOLD})",
    )
    args = parser.parse_args(argv)

    baseline = load_payload(args.baseline)
    candidate = load_payload(args.candidate)
    if args.gate_all:
        gate = tuple(sorted(set(baseline["ops"]) & set(candidate["ops"])))
    else:
        gate = tuple(args.gate)
    lines, failures = compare_payloads(
        baseline, candidate, gate=gate, threshold=args.threshold
    )
    for line in lines:
        print(line)
    if failures:
        for failure in failures:
            print(failure)
        return 1
    print(f"gate ok: {', '.join(gate)} within {args.threshold:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
