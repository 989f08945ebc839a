#!/usr/bin/env python3
"""Smoke tests for the envybench binary.

Runs every workload named in BENCHMARK.json for a couple of seconds,
untraced and traced, and checks that the result line carries exactly
the metrics BENCHMARK.json names, each finite and with its unit.  Then
checks that a tampered answer fails the run and that bad arguments are
refused without a result.

    python3 envybench/tests/smoke_test.py --binary .bench_build/envybench/envybench \
        --benchmark-json BENCHMARK.json --data-dir /tmp/envybench-smoke

(ctest --test-dir .bench_build/envybench runs it with those arguments.)
"""

import argparse
import glob
import json
import math
import os
import subprocess
import sys

SECONDS = "2"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(binary, data_dir, *args):
    cmd = [binary, "--data-dir", data_dir, *args]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return p, result


class Checks:
    def __init__(self):
        self.failures = []

    def expect(self, cond, what):
        if not cond:
            self.failures.append(what)
            print(f"FAIL: {what}", flush=True)
        return cond


def check_result(ck, label, p, result, metrics):
    if not ck.expect(p.returncode == 0,
                     f"{label}: exit {p.returncode}: {p.stderr[-500:]}"):
        return
    if not ck.expect(result is not None, f"{label}: no JSON last line"):
        return
    ck.expect(set(result) == RESULT_KEYS,
              f"{label}: result keys {sorted(result)}")
    ck.expect(result.get("correct") is True, f"{label}: not correct")
    ck.expect(isinstance(result.get("attempted"), int)
              and result["attempted"] >= 1, f"{label}: attempted")
    ck.expect(result.get("failed") == 0, f"{label}: failed {result.get('failed')}")
    got = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in metrics}
    ck.expect(set(got) == set(want),
              f"{label}: metrics differ: missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        ck.expect(set(m) == {"value", "unit"}, f"{label}: {name} keys {sorted(m)}")
        v = m.get("value")
        ck.expect(isinstance(v, (int, float)) and math.isfinite(v),
                  f"{label}: {name} value {v!r} not finite")
        ck.expect(m.get("unit") == unit,
                  f"{label}: {name} unit {m.get('unit')!r}, want {unit!r}")
    # The human-readable table names every metric with unit and count.
    table = {l.split()[0]: l.split() for l in p.stdout.splitlines()
             if len(l.split()) == 4}
    for name, unit in want.items():
        row = table.get(name)
        ck.expect(row is not None and row[2] == unit and row[3].isdigit(),
                  f"{label}: table row for {name}: {row}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", required=True)
    ap.add_argument("--benchmark-json", required=True)
    ap.add_argument("--data-dir", required=True)
    args = ap.parse_args()
    with open(args.benchmark_json) as f:
        bench = json.load(f)
    os.makedirs(args.data_dir, exist_ok=True)
    ck = Checks()

    for w in bench["workloads"]:
        name = w["name"]
        for trace, metrics in (("0", bench["end_to_end"]),
                               ("1", bench["per_layer"])):
            label = f"{name} trace={trace}"
            print(f"running {label}", flush=True)
            p, result = run(args.binary, args.data_dir, "--workload", name,
                            "--seed", "7", "--seconds", SECONDS,
                            "--trace", trace)
            check_result(ck, label, p, result, metrics)
            if trace == "1" and result:
                ck.expect(result["metrics"]["trace.overhead"]["value"] > 0,
                          f"{label}: trace.overhead not measured")
        spans = glob.glob(os.path.join(args.data_dir, f"trace-{name}-seed7.jsonl"))
        if ck.expect(spans, f"{name}: no span file"):
            with open(spans[0]) as f:
                first = [json.loads(next(f)) for _ in range(4)]
            ck.expect([s["span"] for s in first] ==
                      ["client.request", "transport.c2s", "server.residence",
                       "transport.s2c"], f"{name}: span names {first}")
            ck.expect(first[0]["parent"] is None and
                      all(s["parent"] == first[0]["id"] for s in first[1:]),
                      f"{name}: span parents")
            ck.expect(all(s["end_ns"] >= s["start_ns"] for s in first),
                      f"{name}: span times")

    # A tampered answer must fail the checks, and the run must say so.
    print("running tamper case", flush=True)
    p, result = run(args.binary, args.data_dir, "--workload", "zipf-hot",
                    "--seed", "7", "--seconds", "1", "--trace", "0",
                    "--tamper")
    ck.expect(p.returncode != 0, "tamper: exit code 0")
    ck.expect(result is not None and result["correct"] is False
              and result["failed"] >= 1, f"tamper: result {result}")
    ck.expect("outside" in p.stderr, "tamper: no version-check message")

    # Bad arguments: refused, no result line.
    p, result = run(args.binary, args.data_dir, "--workload", "no-such",
                    "--seed", "1", "--seconds", "1", "--trace", "0")
    ck.expect(p.returncode != 0 and result is None, "unknown workload accepted")

    if ck.failures:
        print(f"{len(ck.failures)} check(s) failed")
        return 1
    print("all smoke checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
