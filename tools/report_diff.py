#!/usr/bin/env python3
"""Fails unless two BENCH_results.json files agree outside the masked fields.

    tools/report_diff.py CLEAN FAULTED PREFIX...

Both reports are canonicalised before the comparison: the top-level
"faults" and "base_seed" entries are dropped, every result's "wall_ms" is
zeroed and its "timers" emptied, and every counter, gauge or histogram
whose key starts with one of the PREFIXes (e.g. "fault." "recovery.") is
removed. Nothing else is masked. A report that selected no experiments
fails too, so a filter that silently matches nothing cannot pass.
"""

import json
import sys


def canon(path, prefixes):
    with open(path) as f:
        doc = json.load(f)
    doc.pop("faults", None)
    doc.pop("base_seed", None)
    if doc["count"] == 0:
        sys.exit(f"{path}: the run selected no experiments")
    for result in doc["results"]:
        result["wall_ms"] = 0
        metrics = result.get("metrics", {})
        metrics["timers"] = {}
        for section in ("counters", "gauges", "histograms"):
            values = metrics.get(section, {})
            for key in [k for k in values if k.startswith(prefixes)]:
                del values[key]
    return doc


def main(argv):
    if len(argv) < 4:
        sys.exit(__doc__)
    clean, faulted, prefixes = argv[1], argv[2], tuple(argv[3:])
    if canon(clean, prefixes) != canon(faulted, prefixes):
        sys.exit(f"{faulted} differs from {clean} outside {' '.join(prefixes)}")
    print(f"{faulted} is bit-identical to {clean} outside {' '.join(prefixes)}")


if __name__ == "__main__":
    main(sys.argv)
