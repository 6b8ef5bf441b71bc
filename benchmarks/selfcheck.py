"""Toy-size self-check of the benchmark, kept out of the test suite:

    python3 benchmarks/selfcheck.py

Runs every workload with ``--toy`` (tiny inputs, every correctness check)
untraced and traced, and checks the output contract: the last line is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the metrics are exactly those of ``BENCHMARK.json`` with their units;
no check and no operation failed; end-to-end values are finite and not
0. It also checks ``BENCHMARK.json`` itself, and that the benchmark
refuses to run (non-zero exit, no result) in a copy that holds only
``BENCHMARK.json`` and the benchmark's own directory. Takes about a
minute.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> list[str]:
    errors = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        errors.append(f"BENCHMARK.json keys: {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    errors += [f"bad or repeated name {n!r}" for n in names if not NAME.match(n) or names.count(n) > 1]
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            errors.append(f"metric {m['name']}: unit/better {m['unit']!r}/{m['better']!r}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            errors.append(f"end-to-end metric {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" or setup[0]["bound"] < max(
        m["bound"] for m in spec["end_to_end"]
    ):
        errors.append("setup_s must be in s, lower is better, with the largest bound")
    if not 2 <= len(spec["workloads"]) <= 8 or any(len(w["why"]) > 200 for w in spec["workloads"]):
        errors.append("workloads: 2 to 8, each why at most 200 characters")
    if not isinstance(spec["run_seconds"], int) or not 1 <= spec["run_seconds"] <= 60:
        errors.append(f"run_seconds {spec['run_seconds']!r}")
    return errors


def run_once(cwd, workload, trace, toy=True):
    cmd = [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)] + (["--toy"] if toy else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc, units: dict, end_to_end: bool) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-1500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != units:
        errors.append(f"metrics/units differ from BENCHMARK.json: {sorted(set(got) ^ set(units))}")
    for k, v in result["metrics"].items():
        if not math.isfinite(v["value"]) or (end_to_end and v["value"] == 0):
            errors.append(f"{k} = {v['value']}")
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = [f"spec: {e}" for e in check_spec(spec)]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        for trace in (0, 1):
            errs = check_result(run_once(ROOT, w["name"], trace), layer if trace else e2e, not trace)
            print(f"{w['name']} trace={trace}: {'ok' if not errs else 'FAIL'}")
            failures += [f"{w['name']} trace={trace}: {e}" for e in errs]

    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "benchmarks"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_once(bare, spec["workloads"][0]["name"], 0, toy=False)
    refused = proc.returncode != 0 and '"correct"' not in proc.stdout
    print(f"bare checkout refused: {'ok' if refused else 'FAIL'}")
    if not refused:
        failures.append(f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL", f)
    print("selfcheck:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
