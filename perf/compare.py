#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py PARENT.json CHANGE.json``.

One declarative table (``spec.END_TO_END``: metric, direction, relative bound,
absolute floor) is applied to every workload row.  Each (metric, workload)
pair prints as

* ``ok``          the change's median is no worse than the parent's by more
                  than ``max(bound x parent median, floor)``;
* ``worse``       it is;
* ``unresolved``  either side's quartile spread is wider than that allowance,
                  so the runs cannot tell (only with ``--repeats`` > 1).

Counts that must repeat exactly on one host (``spec.EXACT``) and the final
parameter digests are compared for equality.  Exit status is non-zero on any
``worse``, ``unresolved`` or exact mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec as tables  # noqa: E402

OK, WORSE, UNRESOLVED = "ok", "worse", "unresolved"


def summary(entry: Any) -> Tuple[float, float]:
    """(median, quartile spread) of one recorded metric."""
    if isinstance(entry, dict):
        return float(entry["median"]), float(entry.get("q3", 0.0)) - float(entry.get("q1", 0.0))
    return float(entry), 0.0


def judge(metric: tables.EndToEnd, parent: Any, change: Any) -> Tuple[str, float, float]:
    """Verdict, signed worsening and the allowance for one pair."""
    base, base_spread = summary(parent)
    new, new_spread = summary(change)
    worsening = new - base if metric.better == "lower" else base - new
    allowed = max(metric.bound * abs(base), metric.floor)
    if max(base_spread, new_spread) > allowed:
        return UNRESOLVED, worsening, allowed
    return (WORSE if worsening > allowed else OK), worsening, allowed


def same_host(parent: Dict[str, Any], change: Dict[str, Any]) -> bool:
    keys = ("cpu_count", "nproc", "python", "numpy", "blas")
    a, b = parent.get("fingerprint", {}), change.get("fingerprint", {})
    return all(a.get(k) == b.get(k) for k in keys)


def compare(parent: Dict[str, Any], change: Dict[str, Any]) -> Tuple[List[str], int]:
    """The printed table and the number of breaches."""
    lines: List[str] = []
    breaches = 0
    exact_binding = same_host(parent, change) and parent.get("seed") == change.get("seed")
    if not exact_binding:
        lines.append("note: different host or seed — exact counts and digests are shown, not enforced")
    lines.append(f"{'workload':<18} {'metric':<34} {'parent':>11} {'change':>11} {'worsening':>12} {'allowed':>12}  verdict")
    for name, base in parent["workloads"].items():
        new = change["workloads"].get(name)
        if new is None:
            lines.append(f"{name:<18} missing from the change's result")
            breaches += 1
            continue
        for metric in tables.END_TO_END:
            if metric.name not in base["end_to_end"] or metric.name not in new["end_to_end"]:
                continue
            a, b = base["end_to_end"][metric.name], new["end_to_end"][metric.name]
            verdict, worsening, allowed = judge(metric, a, b)
            breaches += verdict != OK
            lines.append(
                f"{name:<18} {metric.name:<34} {summary(a)[0]:>11.6g} {summary(b)[0]:>11.6g} "
                f"{worsening:>12.4g} {allowed:>12.4g}  {verdict}"
            )
        pairs = [(key, base["exact"].get(key), new["exact"].get(key)) for key in tables.EXACT]
        pairs.append(("digest", base.get("digest"), new.get("digest")))
        for key, a, b in pairs:
            if a is None and b is None:
                continue
            equal = a == b
            breaches += (not equal) and exact_binding
            lines.append(
                f"{name:<18} {'exact:' + key:<34} {str(a)[:11]:>11} {str(b)[:11]:>11} {'':>12} {'':>12}  "
                f"{'equal' if equal else 'DIFFERS'}"
            )
    return lines, breaches


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(p).read_text()) for p in argv)
    lines, breaches = compare(parent, change)
    print("\n".join(lines))
    print(f"{breaches} breach(es)" if breaches else "no breach")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
