"""Spans and probes around calls into ``leapts``, installed from outside.

Nothing under ``src/`` knows about the benchmark. A probe or span is put
in place by rebinding a public name in the module that *calls* it (for
example ``leapts.training.adam_step``), so the program's own call sites
pick the wrapper up at run time. ``Patches.restore`` puts every original
back.

A span records a name, its start and end (``time.perf_counter``), the
span that was open when it began (its parent), the batch id current at
the time, and an optional ``info`` dict of counts taken at the same
boundary. Spans stay in memory and are written out once, when the run
ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Patches:
    """Rebinds attributes and remembers the originals."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, attr, make_wrapper):
        """Replace ``owner.attr`` by ``make_wrapper(original)``."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = make_wrapper(orig)
        self._saved.append((owner, attr, orig, wrapper))
        setattr(owner, attr, wrapper)

    def switch(self, on: bool):
        """Put the wrappers (``on``) or the originals in place, keeping both."""
        for owner, attr, orig, wrapper in self._saved:
            setattr(owner, attr, wrapper if on else orig)

    def restore(self):
        while self._saved:
            owner, attr, orig, _ = self._saved.pop()
            setattr(owner, attr, orig)


class Span:
    __slots__ = ("name", "start", "end", "parent", "batch", "info")

    def __init__(self, name, start, parent, batch):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.batch = batch
        self.info = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.batch = -1
        self.patches = Patches()

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.batch))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int, info=None):
        sp = self.spans[idx]
        sp.end = time.perf_counter()
        sp.info = info
        self._stack.pop()

    def span(self, name: str):
        return _SpanContext(self, name)

    def wrap(self, owner, attr, name, info=None, pre=None, new_batch=False):
        """Record a span around every call of ``owner.attr``.

        ``name`` is a string or ``fn(args, kwargs) -> str``. ``pre(args,
        kwargs)`` runs before the span opens and ``info(result, args,
        kwargs, pre_value)`` after it closes, so neither is timed. With
        ``new_batch`` each call starts a new batch id, which the spans
        that follow carry until the next such call.
        """
        tracer = self

        def make(orig):
            def traced(*args, **kwargs):
                label = name(args, kwargs) if callable(name) else name
                pre_value = pre(args, kwargs) if pre is not None else None
                if new_batch:
                    tracer.batch += 1
                idx = tracer.begin(label)
                try:
                    out = orig(*args, **kwargs)
                except BaseException:
                    tracer.end(idx)
                    raise
                tracer.spans[idx].end = time.perf_counter()
                tracer._stack.pop()
                if info is not None:
                    tracer.spans[idx].info = info(out, args, kwargs, pre_value)
                return out

            return traced

        self.patches.patch(owner, attr, make)

    # -- reading the record --------------------------------------------------

    def ancestors(self, sp: Span) -> set[str]:
        names = set()
        p = sp.parent
        while p >= 0:
            names.add(self.spans[p].name)
            p = self.spans[p].parent
        return names

    def select(self, name: str, under: tuple = ()) -> list[Span]:
        """Closed spans called ``name`` (any name starting with ``name`` when
        it ends with '.') that lie below a span of every name in ``under``."""
        prefix = name.endswith(".")
        out = []
        for sp in self.spans:
            if sp.end is None:
                continue
            if not (sp.name.startswith(name) if prefix else sp.name == name):
                continue
            if under and not set(under) <= self.ancestors(sp):
                continue
            out.append(sp)
        return out

    def self_times(self) -> dict[str, tuple[float, float, int]]:
        """name -> (total time, self time, calls). Self time is a span's
        duration minus the part its child spans cover."""
        child = defaultdict(float)
        for sp in self.spans:
            if sp.end is not None and sp.parent >= 0:
                child[sp.parent] += sp.dur
        table = defaultdict(lambda: [0.0, 0.0, 0])
        for i, sp in enumerate(self.spans):
            if sp.end is None:
                continue
            row = table[sp.name]
            row[0] += sp.dur
            row[1] += sp.dur - child[i]
            row[2] += 1
        return {k: tuple(v) for k, v in table.items()}

    def write(self, path):
        """Spans as JSON lines, then one line per name with total/self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, sp in enumerate(self.spans):
                if sp.end is None:
                    continue
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": sp.name,
                            "start": sp.start,
                            "end": sp.end,
                            "parent": sp.parent,
                            "batch": sp.batch,
                            "info": sp.info,
                        }
                    )
                    + "\n"
                )
            for name, (total, self_t, calls) in sorted(self.self_times().items()):
                fh.write(
                    json.dumps({"summary": name, "total_s": total, "self_s": self_t, "calls": calls})
                    + "\n"
                )


class _SpanContext:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.idx = -1

    def __enter__(self):
        self.idx = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.idx)
        return False


def total(spans) -> float:
    return sum(sp.dur for sp in spans)


def info_sum(spans, key) -> float:
    return sum(sp.info[key] for sp in spans if sp.info and key in sp.info)


def install_layer_spans(tracer: Tracer):
    """Wrap the public calls of every layer the workloads reach."""
    import importlib

    import leapts.autodiff as autodiff
    import leapts.bounds as bounds
    import leapts.data as data
    import leapts.diagnostics as diagnostics
    import leapts.engine as engine
    import leapts.forward as forward
    import leapts.synth as synth
    import leapts.traces as traces
    import leapts.training as training
    from leapts.model import LeapTS

    metrics = importlib.import_module("leapts.metrics")  # the package rebinds the name to a function
    t = tracer
    t.wrap(training, "train", "training.train")
    t.wrap(training, "evaluate", "training.evaluate")
    t.wrap(training, "evaluate_full", "training.evaluate_full")
    t.wrap(
        training,
        "forward_loss",
        lambda a, k: "forward.loss." + k.get("mode", a[3] if len(a) > 3 else "train"),
        new_batch=True,
    )
    for mod in (training, diagnostics):
        t.wrap(mod, "predict_batch", "forward.predict", new_batch=True)
    t.wrap(training, "adam_step", "optim.adam")
    for mod in (training, data):
        t.wrap(mod, "make_windows", "data.make_windows")
    t.wrap(
        forward,
        "run_schedule_rows",
        "engine.schedule",
        info=lambda out, a, k, _: {"rows": int(a[1].shape[0]), "loop_steps": len(out[2])},
    )
    t.wrap(engine, "length_candidates", "controller.length_candidates")
    t.wrap(engine, "gumbel_softmax_select", "controller.gumbel_select")
    t.wrap(engine, "round_and_clip_rows", "controller.round_clip")
    t.wrap(LeapTS, "encode_rows", "model.encode")
    t.wrap(LeapTS, "coarse_rows", "model.coarse")
    t.wrap(LeapTS, "init_state_rows", "model.init_state")

    def tape_size(args, kwargs):
        nodes = args[0].nodes
        return {"nodes": len(nodes), "bytes": sum(n.out.data.nbytes for n in nodes)}

    t.wrap(autodiff.Tape, "backward", "autodiff.backward", info=lambda o, a, k, pre: pre, pre=tape_size)
    for s in (1, 2, 3):
        t.wrap(
            synth,
            f"gen_scenario{s}",
            f"synth.scenario{s}",
            info=lambda out, a, k, _: {"steps": int(a[0].total_steps)},
        )
    t.wrap(
        synth, "write_csv", "data.write_csv",
        info=lambda out, a, k, _: {"rows": int(a[0].values.shape[0])},
    )
    t.wrap(data, "load_csv", "data.load_csv", info=lambda out, a, k, _: {"rows": int(out.length)})
    t.wrap(
        traces,
        "write_trace_jsonl",
        "traces.write",
        info=lambda out, a, k, _: {"steps": sum(tr.n_steps for tr in a[0])},
    )
    t.wrap(diagnostics, "trace_override", "diagnostics.override")
    for fn in ("category_stats", "ratio_summary", "bin_by_volatility"):
        t.wrap(diagnostics, fn, "diagnostics.stats", info=lambda out, a, k, _: {"traces": len(a[0])})
    t.wrap(metrics, "metrics", "metrics.full_report")
    t.wrap(bounds, "bound_leapts_optimal", "bounds.optimal", info=lambda out, a, k, _: {"P": a[0].P})
