#!/usr/bin/env python3
"""Self-test of the SoftWatt benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Builds the benchmark, then runs every
workload at a fifth of its scale in both modes and checks that:

* each run exits 0 and its last stdout line is a correct result;
* --trace 0 emits exactly the end_to_end metrics of BENCHMARK.json and
  --trace 1 exactly its per_layer metrics, each with its declared unit;
* the traced run reports a positive self time for every layer and writes
  Chrome trace-event JSON whose spans nest properly.

Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAYERS = ("core", "sim", "mem", "cpu", "os", "power", "disk", "workload")
SCALE = "0.2"
SEED = "7"

errors = []


def check(ok, message):
    if not ok:
        errors.append(message)
        print(f"  FAIL {message}")


def run(workload, trace):
    cmd = ["python3", os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", "1",
           "--trace", str(trace), "--scale", SCALE]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0,
          f"{workload} trace={trace}: exit {proc.returncode}: "
          f"{proc.stderr.strip()[-300:]}")
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        check(False, f"{workload} trace={trace}: no result line")
        return None


def check_metrics(workload, trace, result, declared):
    check(result["correct"] is True and result["failed"] == 0,
          f"{workload} trace={trace}: result not correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{workload} trace={trace}: attempted < 1")
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    check(set(got) == set(want),
          f"{workload} trace={trace}: metrics differ: missing "
          f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        if name in got:
            check(got[name]["unit"] == unit,
                  f"{workload}: {name} unit {got[name]['unit']} != {unit}")
            check(isinstance(got[name]["value"], (int, float)),
                  f"{workload}: {name} value is not a number")


def check_spans(workload, path):
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        check(False, f"{workload}: unreadable trace {path}: {e}")
        return
    check(len(events) > 0, f"{workload}: trace has no spans")
    by_id = {}
    children = {}
    for e in events:
        check(e.get("ph") == "X" and e.get("dur", -1) >= 0 and
              e.get("cat") and e.get("name"),
              f"{workload}: malformed trace event {e}")
        args = e["args"]
        check(args["span"] not in by_id,
              f"{workload}: duplicate span id {args['span']}")
        by_id[args["span"]] = e
        children.setdefault(args["parent"], []).append(e)
    for e in events:
        parent = e["args"]["parent"]
        if parent < 0:
            continue
        p = by_id.get(parent)
        if p is None:
            check(False, f"{workload}: span {e['args']['span']} has no parent")
            continue
        check(p["ts"] <= e["ts"] and
              e["ts"] + e["dur"] <= p["ts"] + p["dur"],
              f"{workload}: span {e['name']} escapes parent {p['name']}")
        check(p["args"]["run"] in ("", e["args"]["run"]),
              f"{workload}: span {e['name']} changes run id under "
              f"{p['name']}")
    for siblings in children.values():
        siblings.sort(key=lambda e: e["ts"])
        for a, b in zip(siblings, siblings[1:]):
            check(a["ts"] + a["dur"] <= b["ts"],
                  f"{workload}: sibling spans {a['name']} and "
                  f"{b['name']} overlap")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        print(f"{w}: timed run")
        result = run(w, 0)
        if result:
            check_metrics(w, 0, result, bench["end_to_end"])
        print(f"{w}: traced run")
        result = run(w, 1)
        if result:
            check_metrics(w, 1, result, bench["per_layer"])
            for layer in LAYERS:
                value = result["metrics"].get(f"{layer}.self_ms", {})
                check(value.get("value", 0) > 0,
                      f"{w}: no self time for layer {layer}")
        check_spans(w, os.path.join(ROOT, ".bench_out",
                                    f"trace-{w}-seed{SEED}.json"))
    print("selftest:", "FAILED" if errors else "ok",
          f"({len(errors)} problems)" if errors else "")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
