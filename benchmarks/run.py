"""Benchmark of the ``leapts`` package: three workloads, end-to-end metrics
from an untraced run and per-layer metrics from a traced one.

    python3 benchmarks/run.py --workload train-desk --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload forecast-clustered --seed 1 --seconds 15 --trace 1
    python3 benchmarks/run.py --workload synth-bounds --seed 1 --seconds 15 --trace 0 --toy

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those of ``BENCHMARK.json`` at the repository root.
``--toy`` shrinks every input so that a run takes seconds (see
``selfcheck.py``). Spans of a traced run and scratch files go to
``benchmarks/out/``. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# Single-threaded BLAS, set before numpy is first imported (here or in a child).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("train-desk", "forecast-clustered", "synth-bounds")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs: every check in seconds")
    return p.parse_args(argv)


def _metric_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}, {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "leapts", "__init__.py")):
        print(f"error: no leapts sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    e2e_units, layer_units = _metric_spec()
    sys.path.insert(0, SRC)

    import numpy  # noqa: F401  (loaded before the timed import of leapts)

    import harness

    run = harness.Run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    tracer = None
    t0 = time.perf_counter()
    import leapts

    run.import_s = time.perf_counter() - t0
    if not os.path.abspath(leapts.__file__).startswith(SRC + os.sep):
        print(f"error: imported leapts from {leapts.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if run.trace:
        from tracer import Tracer, install_layer_spans

        tracer = Tracer()
        install_layer_spans(tracer)

    if args.workload == "train-desk":
        import train_desk as workload
    elif args.workload == "forecast-clustered":
        import forecast_clustered as workload
    else:
        import synth_bounds as workload

    try:
        values = workload.run(run, tracer)
    finally:
        run.remove_scratch()
    units = layer_units if run.trace else e2e_units
    if set(values) != set(units):
        missing, extra = sorted(set(units) - set(values)), sorted(set(values) - set(units))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}", file=sys.stderr)
        return 2
    if tracer is not None:
        tracer.patches.restore()
        tracer.write(os.path.join(harness.OUT, f"spans-{run.workload}-seed{run.seed}.jsonl"))

    for name, ok, detail in run.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f"  ({detail})" if detail and not ok else ""))
    for name, value in sorted(run.notes.items()):
        print(f"note {name} = {value!r}")
    if run.host_ms:
        print(f"note host.reference_ms = {harness.upper_quartile(run.host_ms)!r} (upper quartile of {len(run.host_ms)})")
    for name in sorted(values):
        print(f"metric {name} = {values[name]!r} {units[name]}")
    print(
        json.dumps(
            {
                "correct": run.correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {n: {"value": float(values[n]), "unit": units[n]} for n in sorted(values)},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
