#!/usr/bin/env python3
"""Compare two benchmark result records.

    python3 perfbench/compare.py BASE.json NEW.json

Each file is a record the benchmark writes to
.bench_out/result-<workload>-seed<n>-trace<k>.json. Prints every metric
of both, the change as a share of the base, and, against the bounds in
BENCHMARK.json, whether NEW is worse than BASE by more than the bound.

A verdict is given only when both records carry the same host
fingerprint (CPU model, core count, compiler, build type). Across
different hosts the comparison is printed as informational and the exit
status is always 0. On the same host, the exit status is 1 when any
end-to-end metric is worse by more than its bound.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_FIELDS = ("cpu_model", "nproc", "compiler", "build_type")


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        sys.exit(2)
    with open(sys.argv[1]) as f:
        base = json.load(f)
    with open(sys.argv[2]) as f:
        new = json.load(f)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        declared = json.load(f)
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in declared["end_to_end"] + declared["per_layer"]}

    differing = [k for k in HOST_FIELDS
                 if base["fingerprint"].get(k) != new["fingerprint"].get(k)]
    if differing:
        print("informational only: host fingerprints differ in "
              + ", ".join(differing) + "; no verdict")
    for key in ("workload", "scale"):
        if base[key] != new[key]:
            print(f"note: {key} differs: {base[key]} vs {new[key]}")

    regressed = []
    base_m = base["result"]["metrics"]
    new_m = new["result"]["metrics"]
    for name in base_m:
        if name not in new_m:
            continue
        a, b = base_m[name]["value"], new_m[name]["value"]
        change = (b - a) / a if a else 0.0
        worse = change if better.get(name) == "lower" else -change
        line = f"{name:28s} {a:14.6g} -> {b:14.6g} {change:+8.2%}"
        if name in bounds:
            limit = bounds[name]["bound"]
            line += f"  bound {limit:.0%}"
            if worse > limit:
                line += "  WORSE THAN BOUND"
                regressed.append(name)
        print(line)
    if differing:
        sys.exit(0)
    print("verdict:", "regressed: " + ", ".join(regressed) if regressed
          else "within bounds")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
