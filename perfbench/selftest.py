#!/usr/bin/env python3
"""Self-test of the benchmark, in its tiny configuration (about a minute).

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload it checks that an
untraced run reports every end-to-end metric of BENCHMARK.json with its
unit and correct outputs, that a traced run reports every per-layer
metric and writes one well-formed Chrome trace, and that the
deterministic proxies repeat exactly across two traced runs. It then
corrupts one expected-output record and checks that the run fails.
"""

import json
import os
import shutil
import subprocess
import sys

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
TRACES = os.path.join(".bench_build", "perfbench")
# Per-layer metrics that count work rather than time it: they must
# repeat exactly for the same seed.
PROXIES = [
    "workload.static_insns", "compress.windows", "compress.dict_entries",
    "compress.codewords", "compress.minor_words_per_static_insn",
    "machine.minor_words_per_insn", "machine.jit_hit_frac",
    "engine.expansions_per_kinsn", "pipeline.minor_words_per_insn",
    "pipeline.retired", "pipeline.cycles", "wire.bytes_per_op",
    "score.fit_frac",
]

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def run(workload, trace, seed=1, expected=None):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
                 "1", "--trace", str(trace), "--tiny"]
    if expected:
        cmd += ["--expected", expected]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return p.returncode, result


def well_formed_trace(path):
    try:
        with open(path) as f:
            events = json.load(f)
    except (OSError, json.JSONDecodeError):
        return False
    spans = [e for e in events if e.get("ph") == "X"]
    return bool(spans) and all(
        isinstance(e.get("ts"), int) and isinstance(e.get("dur"), int)
        and e.get("name") and e.get("cat") for e in spans)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    # compress is not gated by BENCHMARK.json (see README.md) but is
    # checked like the others.
    for w in ["compress"] + [w["name"] for w in bench["workloads"]]:
        code, r = run(w, 0)
        check(code == 0 and r is not None, f"{w}: untraced run exits 0 with a result line")
        if r is None:
            continue
        check(set(r) == {"correct", "attempted", "failed", "metrics"},
              f"{w}: result line has exactly the four keys")
        check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
              f"{w}: every output matches its record")
        got = {k: v["unit"] for k, v in r["metrics"].items()}
        check(got == end_to_end, f"{w}: every end-to-end metric, with its unit")

        trace_path = os.path.join(TRACES, f"trace-{w}-1.json")
        if os.path.exists(trace_path):
            os.remove(trace_path)
        proxies = []
        for _ in range(2):
            code, r = run(w, 1)
            ok = code == 0 and r is not None
            check(ok, f"{w}: traced run exits 0 with a result line")
            if not ok:
                break
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(got == per_layer, f"{w}: every per-layer metric, with its unit")
            proxies.append({k: r["metrics"][k]["value"] for k in PROXIES})
        check(well_formed_trace(trace_path), f"{w}: one well-formed Chrome trace")
        if len(proxies) == 2:
            check(proxies[0] == proxies[1], f"{w}: proxies repeat exactly")

    # A deliberately corrupted record must fail the op that produced it.
    corrupt = os.path.join(".bench_build", "perfbench", "corrupt-expected")
    shutil.rmtree(corrupt, ignore_errors=True)
    shutil.copytree(os.path.join("perfbench", "expected"), corrupt)
    path = os.path.join(corrupt, "simulate.json")
    with open(path) as f:
        records = json.load(f)
    records["mcf/baseline"]["cycles"] += 1
    with open(path, "w") as f:
        json.dump(records, f)
    code, r = run("simulate", 0, expected=corrupt)
    check(code != 0 and r is not None and not r["correct"] and r["failed"] > 0,
          "simulate: a corrupted record fails the run")
    shutil.rmtree(corrupt, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
