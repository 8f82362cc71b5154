"""Compare two sets of saved benchmark records against the bounds.

Usage::

    python3 perfbench/compare.py --parent p1.json p2.json ... \\
                                 --child c1.json c2.json ...

Each file is a record written by ``run.py --out``.  Records must share a
workload.  For every end-to-end metric of ``BENCHMARK.json`` the table
shows both medians, both spreads (interquartile distance over median)
and how much worse the child is; a metric worse than its bound is marked
``REGRESSED``.  Any difference between the records' host blocks (CPU
count, BLAS build and threads, numpy/Python version, dtype, seed) is
flagged first, because such a comparison is not like for like.

Exits 1 when a metric regressed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import catalogue
import stats


def load(paths: List[str]) -> List[dict]:
    records = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as stream:
            records.append(json.load(stream))
    return records


def host_warning(records: List[dict]) -> Optional[str]:
    """One line naming every host-block key that differs across records."""
    first = records[0]["host"]
    differing = sorted({key for record in records[1:]
                        for key in stats.host_differences(first,
                                                          record["host"])})
    if not differing:
        return None
    values = {key: sorted({str(record["host"].get(key)) for record in records})
              for key in differing}
    return "WARNING host blocks differ, not like for like (" + "; ".join(
        f"{key}: {', '.join(seen)}" for key, seen in values.items()) + ")"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--child", nargs="+", required=True)
    args = parser.parse_args(argv)
    parent, child = load(args.parent), load(args.child)
    workloads = {record["workload"] for record in parent + child}
    if len(workloads) != 1:
        parser.error(f"records mix workloads: {sorted(workloads)}")

    warning = host_warning(parent + child)
    if warning:
        print(warning)
    rows = stats.compare_medians([r["metrics"] for r in parent],
                                 [r["metrics"] for r in child],
                                 catalogue.load_benchmark()["end_to_end"])
    print(f"{workloads.pop()}: {len(parent)} parent vs {len(child)} child runs")
    print(f"  {'metric':<18} {'parent':>12} {'child':>12} {'spread p/c':>14} "
          f"{'worse by':>9} {'bound':>6}")
    regressed = False
    for name, row in rows.items():
        flag = "  REGRESSED" if row["regressed"] else ""
        regressed = regressed or row["regressed"]
        print(f"  {name:<18} {row['parent']:>12.5g} {row['child']:>12.5g} "
              f"{row['parent_spread']:>6.1%}/{row['child_spread']:<6.1%} "
              f"{row['worse_by']:>+9.1%} {row['bound']:>6.0%}{flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
