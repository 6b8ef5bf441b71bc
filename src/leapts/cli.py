"""Command-line interface.

Subcommands: gen, train, eval, trace, ablate, bounds, anchors. All
outputs are machine-readable (JSON to stdout, CSV/JSONL to files); the
resolved configuration of every run goes to stderr. Exit codes: 0
success, 1 usage error, 2 data/config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Only the standard library, `errors` and `anchors` load at start; each
# command imports the rest when it runs, so parsing, usage errors, refused
# flag combinations and `anchors` finish without loading numpy.
from .anchors import scale_anchors
from .errors import ConfigError, DataError, NumericError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def _print_config(args: argparse.Namespace):
    resolved = {k: v for k, v in vars(args).items() if k != "func" and not k.startswith("_")}
    print(json.dumps({"resolved_config": resolved}, default=str), file=sys.stderr)


def _emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True, default=str))


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"config file not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"config file {path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise DataError(f"config file {path}: expected a JSON object")
    return cfg


# -- gen ---------------------------------------------------------------------


def cmd_gen(args) -> int:
    from .synth import ScenarioSpec, generate, write_csv

    spec = ScenarioSpec(
        scenario=args.scenario,
        total_steps=args.steps,
        dt=args.dt,
        seed=args.seed,
        observation_noise=not args.no_noise,
        hide_driver=args.hide_driver,
    )
    batch = generate(spec)
    sidecar = write_csv(batch, args.out)
    _emit(
        {
            "csv": str(args.out),
            "sidecar": sidecar,
            "rows": int(batch.values.shape[0]),
            "columns": 1 + batch.values.shape[1],
        }
    )
    return EXIT_OK


# -- train -------------------------------------------------------------------


def _build_configs(args, n_variates):
    from dataclasses import fields

    from .model import ModelConfig
    from .training import TrainConfig

    file_cfg = _load_config_file(args.config)
    for key, section in file_cfg.items():
        if key not in ("model", "train"):
            raise DataError(f"config file: unknown section {key!r} (expected 'model'/'train')")
        if not isinstance(section, dict):
            raise DataError(f"config file: section {key!r} must be a JSON object")
    model_kw = dict(file_cfg.get("model", {}))
    train_kw = dict(file_cfg.get("train", {}))
    # set by --L, --P and the data, never by the file
    flag_fields = {"look_back", "horizon", "n_variates"}
    bad = set(model_kw) - ({f.name for f in fields(ModelConfig)} - flag_fields)
    if bad:
        raise DataError(f"config file: unknown model keys {sorted(bad)}")
    bad = set(train_kw) - {f.name for f in fields(TrainConfig)}
    if bad:
        raise DataError(f"config file: unknown train keys {sorted(bad)}")

    overrides = {
        "hidden_dim": args.hidden,
        "n_clusters": args.clusters,
        "seed": args.seed,
    }
    model_kw.update({k: v for k, v in overrides.items() if v is not None})
    train_overrides = {
        "lr": args.lr,
        "batch_size": args.batch,
        "max_epochs": args.epochs,
        "patience": args.patience,
        "seed": args.seed,
        "ablation": getattr(args, "ablate", None),
        "stride": args.stride,
        "huber_delta": args.delta,
        "max_batches_per_epoch": args.max_batches,
    }
    train_kw.update({k: v for k, v in train_overrides.items() if v is not None})
    if args.no_normalize:
        train_kw["normalize"] = False
    try:
        mcfg = ModelConfig(look_back=args.L, horizon=args.P, n_variates=n_variates, **model_kw)
        return mcfg, TrainConfig(**train_kw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:  # a value of the wrong type met a check
        raise DataError(f"config file: value of the wrong type ({exc})") from None


def cmd_train(args) -> int:
    from dataclasses import asdict

    from .data import load_csv
    from .model import LeapTS
    from .training import train

    dataset = load_csv(args.data, split_fractions=_parse_splits(args.splits))
    mcfg, tcfg = _build_configs(args, dataset.n_variates)
    model = LeapTS(mcfg, ablation=tcfg.ablation)
    model, report = train(model, dataset, tcfg, log_path=args.log)
    model.save(args.out)
    _emit({"checkpoint": str(args.out), "report": asdict(report)})
    return EXIT_NUMERIC if report.diverged else EXIT_OK


# -- eval / trace ------------------------------------------------------------


def _number_list(flag, text, kind=float):
    """The comma-separated values of ``flag``; one that is not a ``kind`` is a DataError."""
    try:
        return [kind(x) for x in str(text).split(",")]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise DataError(f"{flag} needs comma-separated {what}, got {text!r}") from None


def _parse_splits(text):
    parts = _number_list("--splits", text)
    if len(parts) != 3:
        raise DataError(f"--splits needs three comma-separated fractions, got {text!r}")
    return tuple(parts)


def _load_for_eval(args):
    from .data import load_csv, make_windows
    from .model import LeapTS
    from .training import apply_data_norm

    model = LeapTS.load(args.ckpt)
    dataset = load_csv(args.data, split_fractions=_parse_splits(args.splits))
    cfg = model.config
    if dataset.n_variates != cfg.n_variates:
        raise DataError(
            f"checkpoint expects {cfg.n_variates} variates, dataset has {dataset.n_variates}"
        )
    if model.data_norm is not None:
        dataset = apply_data_norm(dataset, model.data_norm)
    windows = make_windows(dataset, cfg.look_back, cfg.horizon, args.split, args.stride)
    return model, dataset, windows


def _parse_override(text):
    kind, _, val = text.partition(":")
    if kind not in ("monte_carlo", "fixed") or not val:
        raise DataError(f"--override must be monte_carlo:N or fixed:K, got {text!r}")
    try:
        return kind, int(val)
    except ValueError:
        raise DataError(f"--override value must be an integer, got {val!r}") from None


def cmd_eval(args) -> int:
    for flag, given in (("--trace", args.trace), ("--full-metrics", args.full_metrics)):
        if args.override and given:  # an override run reports neither
            raise ConfigError(f"--override cannot be combined with {flag}")
    for flag, value, needs, present in (
        ("--seed", args.seed, "--override", args.override),
        ("--s", args.s, "--full-metrics", args.full_metrics),
        ("--smape-ref", args.smape_ref, "--full-metrics", args.full_metrics),
        ("--mase-ref", args.mase_ref, "--full-metrics", args.full_metrics),
    ):
        if value is not None and not present:  # the run would never read it
            raise ConfigError(f"{flag} has no effect without {needs}")
    seed = 0 if args.seed is None else args.seed
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    from dataclasses import asdict

    import numpy as np

    from .diagnostics import trace_override
    from .traces import write_trace_jsonl
    from .training import evaluate, evaluate_full

    model, _, windows = _load_for_eval(args)
    if args.override:
        kind, val = _parse_override(args.override)
        report = trace_override(model, windows, kind, val, rng=np.random.default_rng(seed))
        _emit({"override": args.override, "report": asdict(report)})
        return EXIT_OK
    traces = [] if args.trace else None
    if args.full_metrics:
        report = evaluate_full(
            model, windows, s=1 if args.s is None else args.s, smape_ref=args.smape_ref,
            mase_ref=args.mase_ref, traces=traces,
        )
    else:
        report, traces = evaluate(model, windows, collect_traces=traces is not None)
    if args.trace:
        write_trace_jsonl(traces, args.trace)
    out = {"report": asdict(report)}
    if args.trace:
        out["trace"] = str(args.trace)
    _emit(out)
    return EXIT_OK


def cmd_trace(args) -> int:
    if args.limit is not None and args.limit < 1:
        raise DataError(f"--limit must be at least 1, got {args.limit}")
    from dataclasses import asdict

    from .data import WindowBatch
    from .diagnostics import bin_by_volatility, category_stats, ratio_summary
    from .traces import write_trace_jsonl
    from .training import evaluate

    model, _, windows = _load_for_eval(args)
    if args.limit is not None and args.limit < windows.n_windows:
        windows = WindowBatch(
            inputs=windows.inputs[: args.limit],
            targets=windows.targets[: args.limit],
            starts=windows.starts[: args.limit],
        )
    report, traces = evaluate(model, windows, collect_traces=True)
    write_trace_jsonl(traces, args.out)
    summary = {
        "trace": str(args.out),
        "report": asdict(report),
        "categories": category_stats(traces),
        "decomposition": ratio_summary(traces),
    }
    if len(traces) >= 4:
        summary["volatility_bins"] = [
            {
                "bin": b.bin_id,
                "n": len(b.members),
                "ctrl_ratio": b.mean_ctrl_ratio,
                "time_ratio": b.mean_time_ratio,
                "volatility": b.mean_volatility,
            }
            for b in bin_by_volatility(traces)
        ]
    _emit(summary)
    return EXIT_OK


# -- ablate ------------------------------------------------------------------


def cmd_ablate(args) -> int:
    """Train the full model, then compare variants: ``no_sched`` drops the
    scheduling branch from the trained model (gate forced shut, shared
    weights kept); ``no_high_level`` is retrained from scratch because its
    single-level heads are new parameters."""
    from dataclasses import asdict

    from .data import load_csv, make_windows
    from .model import LeapTS
    from .training import ablate, apply_data_norm, evaluate, train

    dataset = load_csv(args.data, split_fractions=_parse_splits(args.splits))
    flags = [args.flag] if args.flag != "all" else ["no_sched", "no_high_level"]
    mcfg, tcfg = _build_configs(args, dataset.n_variates)
    full, report = train(LeapTS(mcfg), dataset, tcfg)
    diverged = report.diverged
    results = {"none": {"test_mse": report.test.mse, "report": asdict(report)}}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        full.save(os.path.join(args.out, "none.ckpt"))

    eval_ds = dataset
    if full.data_norm is not None:
        eval_ds = apply_data_norm(dataset, full.data_norm)
    test_w = make_windows(eval_ds, mcfg.look_back, mcfg.horizon, "test", tcfg.stride)

    for flag in flags:
        if flag == "no_sched":
            variant = ablate(full, "no_sched")
            rep, _ = evaluate(variant, test_w)
            results[flag] = {"test_mse": rep.mse, "mode": "trained-model ablation"}
        else:
            mcfg_v, tcfg_v = _build_configs(args, dataset.n_variates)
            tcfg_v.ablation = flag
            variant, rep_v = train(LeapTS(mcfg_v, ablation=flag), dataset, tcfg_v)
            diverged = diverged or rep_v.diverged
            results[flag] = {
                "test_mse": rep_v.test.mse,
                "mode": "retrained variant",
                "report": asdict(rep_v),
            }
        if args.out:
            variant.save(os.path.join(args.out, f"{flag}.ckpt"))
    full_mse = results["none"]["test_mse"]
    comparison = {
        flag: {"test_mse": r["test_mse"], "mse_ratio_vs_full": r["test_mse"] / full_mse}
        for flag, r in results.items()
    }
    _emit({"results": results, "comparison": comparison})
    return EXIT_NUMERIC if diverged else EXIT_OK


# -- bounds / anchors --------------------------------------------------------


def cmd_bounds(args) -> int:
    from .bounds import BoundInstance, bound_direct, bound_leapts_optimal, bound_recursive

    lams, eas, eps_, ps = (
        _number_list("--lambda", args.lam),
        _number_list("--eps-a", args.eps_a),
        _number_list("--eps-p", args.eps_p),
        _number_list("--P", args.P, int),
    )
    rows = []
    for lam in lams:
        for a in eas:
            for p in eps_:
                for horizon in ps:
                    inst = BoundInstance(lam=lam, eps_a=a, eps_p=p, P=horizon)
                    res = bound_leapts_optimal(inst)
                    rows.append(
                        {
                            "lambda": lam,
                            "a": a,
                            "p": p,
                            "P": horizon,
                            "B_dir": bound_direct(inst),
                            "B_rec": bound_recursive(inst),
                            "B_star": res.value,
                            "best_partition": res.best_partition,
                            "best_alpha_endpoint": res.best_alpha_endpoint,
                            "attained": res.attained,
                        }
                    )
    if args.sweep:
        print("lambda,a,p,P,B_dir,B_rec,B_star,best_partition")
        for r in rows:
            part = "|".join(str(x) for x in r["best_partition"])
            print(
                f"{r['lambda']},{r['a']},{r['p']},{r['P']},"
                f"{r['B_dir']!r},{r['B_rec']!r},{r['B_star']!r},{part}"
            )
    else:
        if len(rows) != 1:
            raise DataError("multiple parameter values require --sweep")
        _emit(rows[0])
    return EXIT_OK


def cmd_anchors(args) -> int:
    a = scale_anchors(args.L, args.P)
    intervals = " ".join(f"[{lo},{hi}]" for lo, hi in zip(a.mins, a.maxs))
    print(f"degenerate: {intervals}" if a.degenerate else intervals)
    return EXIT_OK


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="leapts", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic scenario CSV")
    p.add_argument("--scenario", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=20000)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--hide-driver", action="store_true")
    p.add_argument("--no-noise", action="store_true")
    p.set_defaults(func=cmd_gen)

    def common_train_flags(p):
        p.add_argument("--config", default=None, help="JSON config file (model/train sections)")
        p.add_argument("--splits", default="0.6,0.2,0.2")
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--batch", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--patience", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--hidden", type=int, default=None)
        p.add_argument("--clusters", type=int, default=None)
        p.add_argument("--stride", type=int, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--max-batches", type=int, default=None)
        p.add_argument("--no-normalize", action="store_true")

    p = sub.add_parser("train", help="train a model on a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--P", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ablate", default=None, choices=("none", "no_sched", "no_high_level"))
    p.add_argument("--log", default=None, help="JSONL training log path")
    common_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--splits", default="0.6,0.2,0.2")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--trace", default=None, help="write schedule trace JSONL here")
    p.add_argument("--override", default=None, help="monte_carlo:N or fixed:K")
    p.add_argument("--seed", type=int, default=None, help="override sampling seed (default 0)")
    p.add_argument("--full-metrics", action="store_true", help="add SMAPE/MAPE/MASE (and OWA)")
    p.add_argument("--s", type=int, default=None, help="seasonality for MASE (default 1)")
    p.add_argument("--smape-ref", type=float, default=None, help="reference SMAPE for OWA")
    p.add_argument("--mase-ref", type=float, default=None, help="reference MASE for OWA")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("trace", help="export schedule traces and diagnostics")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--splits", default="0.6,0.2,0.2")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("ablate", help="train full model plus ablation variants")
    p.add_argument("--data", required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--P", type=int, required=True)
    p.add_argument("--flag", default="no_sched", choices=("no_sched", "no_high_level", "all"))
    p.add_argument("--out", default=None, help="directory for variant checkpoints")
    common_train_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("bounds", help="error-bound simulator")
    p.add_argument("--lambda", dest="lam", required=True, help="Lipschitz factor(s), comma list")
    p.add_argument("--eps-a", required=True, help="error amplitude(s)")
    p.add_argument("--eps-p", required=True, help="error exponent(s), must exceed 1")
    p.add_argument("--P", required=True, help="horizon(s)")
    p.add_argument("--sweep", action="store_true", help="emit a CSV grid over all combinations")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("anchors", help="print scale intervals for (L, P)")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--P", type=int, required=True)
    p.set_defaults(func=cmd_anchors)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _print_config(args)
    try:
        return args.func(args)
    except (DataError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError:
        print("error: out of memory; try a smaller --batch", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
