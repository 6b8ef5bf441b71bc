import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leapts.data import Dataset, make_windows
from leapts.diagnostics import (
    bin_by_volatility,
    category_stats,
    fixed_partition,
    partition_to_steps,
    ratio_summary,
    sample_partition,
    trace_override,
)
from leapts.engine import StepRecord
from leapts.errors import DataError
from leapts.model import LeapTS
from leapts.synth import ScenarioSpec, gen_scenario3
from leapts.traces import (
    ScheduleTrace,
    TraceStep,
    build_traces,
    decompose_update,
    read_trace_jsonl,
    write_trace_jsonl,
)
from leapts.training import evaluate

from conftest import toy_config
from step_records import per_step_traces


def make_trace(window, vol, cats_and_ratios):
    tr = ScheduleTrace(window=window, variate=0, volatility=vol)
    q = 1
    for i, (cat, rc) in enumerate(cats_and_ratios):
        tr.steps.append(
            TraceStep(
                step=i,
                category=cat,
                category_name=["short", "mid", "long"][cat],
                soft=[1.0, 0.0, 0.0],
                len_cont=2.0,
                len_int=2,
                cursor_before=q,
                cursor_after=q + 2,
                ctrl_mag=rc,
                time_mag=1.0 - rc,
                ctrl_ratio=rc,
                time_ratio=1.0 - rc,
            )
        )
        q += 2
    return tr


# -- decomposition -------------------------------------------------------------


def test_decompose_one_sided():
    c, t = decompose_update(np.array([0.5, -0.5]), np.zeros(2))
    assert c == pytest.approx(1.0, abs=1e-9)
    assert t == pytest.approx(0.0, abs=1e-12)


def test_decompose_both_zero():
    c, t = decompose_update(np.zeros(3), np.zeros(3))
    assert c == 0.0 and t == 0.0


def test_decompose_hand_ratio():
    c, t = decompose_update(np.array([3.0]), np.array([-1.0]))
    assert c == pytest.approx(0.75, abs=1e-9)
    assert t == pytest.approx(0.25, abs=1e-9)


def test_decompose_no_sign_cancellation():
    c, t = decompose_update(np.array([1.0, -1.0]), np.array([2.0]))
    assert c == pytest.approx(0.5, abs=1e-9)


def test_decompose_rows_match_single_calls(rng):
    ctrl, time = rng.normal(size=(5, 8)), rng.normal(size=(5, 8))
    ctrl[2] = time[2] = 0.0
    c, t = decompose_update(ctrl, time)
    for r in range(5):
        assert (c[r], t[r]) == decompose_update(ctrl[r], time[r])


# -- volatility bins -------------------------------------------------------------


def test_bins_one_window_each():
    traces = [make_trace(i, float(v), [(0, 0.5)]) for i, v in enumerate([3, 1, 4, 2])]
    bins = bin_by_volatility(traces)
    assert [b.members for b in bins] == [[1], [3], [0], [2]]


def test_bins_tie_broken_by_index():
    traces = [make_trace(i, 1.0, [(0, 0.5)]) for i in range(8)]
    bins = bin_by_volatility(traces)
    assert [b.members for b in bins] == [[0, 1], [2, 3], [4, 5], [6, 7]]


def test_bins_ratio_sums():
    traces = [make_trace(i, float(i), [(0, 0.3), (1, 0.8)]) for i in range(4)]
    for b in bin_by_volatility(traces):
        assert b.mean_ctrl_ratio + b.mean_time_ratio == pytest.approx(1.0, abs=1e-9)


def test_bins_require_four():
    with pytest.raises(DataError):
        bin_by_volatility([make_trace(0, 0.0, [(0, 0.5)])] * 3)


# -- category stats ---------------------------------------------------------------


def test_all_short_distribution():
    traces = [make_trace(i, 0.0, [(0, 0.5), (0, 0.5)]) for i in range(3)]
    stats = category_stats(traces)
    assert stats["distribution"] == {"short": 1.0}
    assert stats["mean_steps"] == 2.0


def test_mean_steps():
    traces = [make_trace(0, 0.0, [(0, 0.5)]), make_trace(1, 0.0, [(1, 0.5), (2, 0.5)])]
    stats = category_stats(traces)
    assert stats["mean_steps"] == 1.5
    assert stats["distribution"]["short"] == pytest.approx(1 / 3)


def test_saturating_length_heads_change_step_counts():
    """Heads biased low force short advancement; step count must exceed the
    high-biased variant's."""
    counts = {}
    for label, bias in (("low", -30.0), ("high", 30.0)):
        model = LeapTS(toy_config(horizon=8, look_back=8, seed=1))
        for name in model.anchors.category_names():
            model.store[f"len_head_{name}_b"].data[:] = bias
        x = np.random.default_rng(0).normal(size=(3, 8, 2))
        from leapts.forward import predict_batch

        _, traces = predict_batch(model, x, traces_from=0)
        counts[label] = category_stats(traces)["mean_steps"]
    assert counts["low"] > counts["high"]


def test_ratio_summary():
    traces = [make_trace(0, 0.0, [(0, 0.25)]), make_trace(1, 0.0, [(1, 0.75)])]
    s = ratio_summary(traces)
    assert s["ctrl_ratio"] == pytest.approx(0.5)
    assert s["n_steps"] == 2


# -- partitions and overrides -----------------------------------------------------


def test_fixed_partition_semantics():
    assert fixed_partition(10, 4) == [4, 4, 2]
    assert fixed_partition(8, 8) == [8]
    with pytest.raises(DataError):
        fixed_partition(8, 0)
    with pytest.raises(DataError):
        fixed_partition(8, 9)


def test_sample_partition_covers(rng):
    for _ in range(200):
        p = sample_partition(12, rng)
        assert sum(p) == 12
        assert all(l >= 1 for l in p)


def test_monte_carlo_reaches_all_compositions(rng):
    seen = set()
    for _ in range(4000):
        seen.add(tuple(sample_partition(4, rng)))
    assert len(seen) == 8  # all compositions of 4


def test_partition_to_steps_category_containment():
    from leapts.controller import scale_anchors

    anchors = scale_anchors(96, 60)
    steps = partition_to_steps([1, 24, 25, 10], anchors)
    assert [s[0] for s in steps] == [0, 0, 1, 0]
    assert [s[2] for s in steps] == [1, 24, 25, 10]


@pytest.fixture(scope="module")
def small_windows():
    batch = gen_scenario3(ScenarioSpec(3, total_steps=400, seed=5))
    ds = Dataset(values=batch.values, split_fractions=(1.0, 0.0, 0.0))
    return make_windows(ds, L=24, P=8, split="train", stride=16)


@pytest.fixture(scope="module")
def small_model():
    return LeapTS(toy_config(n_variates=1, look_back=24, horizon=8, seed=2))


def test_fixed_full_horizon_single_step(small_model, small_windows):
    from leapts.forward import predict_batch

    report = trace_override(small_model, small_windows, "fixed", 8)
    assert np.isfinite(report.mse)
    steps = partition_to_steps(fixed_partition(8, 8), small_model.anchors)
    n_w = small_windows.n_windows
    _, traces = predict_batch(
        small_model, small_windows.inputs, override=[steps] * n_w, traces_from=0
    )
    assert all(tr.n_steps == 1 for tr in traces)


def test_fixed_step_trace_lengths(small_model, small_windows):
    from leapts.forward import predict_batch

    steps = partition_to_steps(fixed_partition(8, 3), small_model.anchors)
    n_w = small_windows.n_windows
    _, traces = predict_batch(
        small_model, small_windows.inputs, override=[steps] * n_w, traces_from=0
    )
    for tr in traces:
        lens = [s.len_int for s in tr.steps]
        assert lens == [3, 3, 2]


def natural_and_replay_preds(model, windows, traces):
    """Plain forecasts, and those of the evaluation pass that `trace_override`
    runs, in its batches, forced to replay ``traces``."""
    from leapts.diagnostics import _OVERRIDE_BATCH
    from leapts.forward import predict_batch
    from leapts.training import _forecast_pass

    natural, _ = predict_batch(model, windows.inputs)
    override = [[(s.category, s.len_cont, s.len_int) for s in tr.steps] for tr in traces]
    replayed = []
    _forecast_pass(model, windows, _OVERRIDE_BATCH, override=override,
                   each_batch=lambda lo, preds: replayed.append(preds))
    return natural, np.concatenate(replayed)


def test_replay_reproduces_eval_bit_exactly(small_model, small_windows):
    _, traces = evaluate(small_model, small_windows, collect_traces=True)
    natural, replayed = natural_and_replay_preds(small_model, small_windows, traces)
    assert np.array_equal(natural, replayed)


def test_replay_after_jsonl_roundtrip(tmp_path, small_model, small_windows):
    """JSON serialization must round-trip the continuous lengths exactly."""
    _, traces = evaluate(small_model, small_windows, collect_traces=True)
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(traces, path)
    loaded = sorted(read_trace_jsonl(path), key=lambda t: (t.window, t.variate))
    natural, replayed = natural_and_replay_preds(small_model, small_windows, loaded)
    assert np.array_equal(natural, replayed)


def test_trace_jsonl_bytes_are_pinned(tmp_path):
    """Each record is the trace's head then the step's fields in the order of
    docs/formats.md, floats at full ``repr`` precision, one record a line."""
    tr = ScheduleTrace(window=3, variate=1, volatility=0.1 + 0.2)
    tr.steps.append(TraceStep(0, 2, "long", [0.1, 0.2, 0.7], 19.37, 19, 1, 20,
                              1 / 3, 0.034, 0.25, 0.75))
    tr.steps.append(TraceStep(1, 0, "short", [1.0, 0.0, 0.0], 2.5e-17, 1, 20, 21,
                              0.0, 1e300, 0.0, 1.0, forced=True))
    path = tmp_path / "pinned.jsonl"
    write_trace_jsonl([tr], path)
    head = '{"schema": "leapts-trace-v1", "window": 3, "variate": 1, "volatility": 0.30000000000000004'
    assert path.read_bytes().decode("utf-8").split("\n") == [
        head + ', "step": 0, "category": 2, "category_name": "long", "soft": [0.1, 0.2, 0.7],'
        ' "len_cont": 19.37, "len_int": 19, "cursor_before": 1, "cursor_after": 20,'
        ' "ctrl_mag": 0.3333333333333333, "time_mag": 0.034, "ctrl_ratio": 0.25,'
        ' "time_ratio": 0.75, "forced": false}',
        head + ', "step": 1, "category": 0, "category_name": "short", "soft": [1.0, 0.0, 0.0],'
        ' "len_cont": 2.5e-17, "len_int": 1, "cursor_before": 20, "cursor_after": 21,'
        ' "ctrl_mag": 0.0, "time_mag": 1e+300, "ctrl_ratio": 0.0, "time_ratio": 1.0,'
        ' "forced": true}',
        "",
    ]
    assert read_trace_jsonl(path) == [tr]


def test_trace_records_are_the_text_json_dumps_writes(tmp_path):
    """The writer builds each line itself; the bytes equal ``json.dumps`` of
    the record, for non-finite, signed-zero, subnormal, large and integer
    values, forced steps and the soft list, and for values of other types."""
    tr = ScheduleTrace(window=2**70, variate=1, volatility=float("nan"))
    tr.steps.append(TraceStep(0, 1, "mid", [float("inf"), -0.0, 5e-324], float("-inf"), 3, 1,
                              4, 1e16, -0.0, float("nan"), 5e-324, forced=True))
    tr.steps.append(TraceStep(1, 2, "long", [0.1, 0.2, 0.7], 1e16, 2**63, 4, 9,
                              1 / 3, 1e-300, 0.25, 0.75))
    tr.steps.append(TraceStep(2, 0, "short", [1, 0.0, 0.0], 2, 1, 9, 10,
                              np.float64(0.5), 0.0, 0.0, 1.0, forced=False))
    other = ScheduleTrace(window=0, variate=0, volatility=-0.0)
    other.steps.append(TraceStep(0, 0, "short", [], 1.5, 1, 1, 2, 0.0, 0.0, 0.0, 0.0))
    path = tmp_path / "edge.jsonl"
    write_trace_jsonl([tr, other], path)
    want = "".join(
        json.dumps({"schema": "leapts-trace-v1", "window": t.window, "variate": t.variate,
                    "volatility": t.volatility, **vars(st)}) + "\n"
        for t in (tr, other) for st in t.steps
    )
    assert path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize(
    "line, reason",
    [
        ("{not json", "JSONDecodeError"),
        ('{"schema": "leapts-trace-v1", "window": 0}', "KeyError\\('variate'\\)"),
        (lambda good: good[:-1] + ', "bogus": 1}', "unexpected keyword argument 'bogus'"),
        ('{"schema": "leapts-trace-v0", "window": 0, "variate": 0}', "unsupported trace schema"),
        (
            lambda good: good.replace('"len_int": 2', '"len_int": "two"')
            .replace('"cursor_before": 1', '"cursor_before": null'),
            "len_int must be int, got 'two'",
        ),
        (lambda good: good.replace('"step": 0', '"step": "1"'), "step must be int, got '1'"),
    ],
    ids=["invalid-json", "missing-key", "unknown-field", "wrong-schema", "wrong-type", "str-step"],
)
def test_read_trace_rejects_malformed_record(tmp_path, line, reason):
    """A bad record after a good one is a DataError naming file and line."""
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl([make_trace(0, 0.5, [(0, 0.5)])], path)
    good = path.read_text().strip()
    if callable(line):
        line = line(good)
    path.write_text(f"{good}\n\n{line}\n")
    with pytest.raises(DataError, match=rf"trace\.jsonl, line 3: bad trace record: .*{reason}"):
        read_trace_jsonl(path)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["replace", "insert", "truncate"]),
       byte=st.integers(0, 255))
def test_corrupted_trace_loads_or_raises_data_error(data, kind, byte):
    """One byte replaced or inserted (a non-UTF-8 one too), or the file cut
    short anywhere: the trace file either loads or raises `DataError`
    naming the file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        write_trace_jsonl([make_trace(0, 0.5, [(0, 0.5), (2, 0.25)]),
                           make_trace(1, 0.1, [(1, 1.0)])], path)
        blob = bytearray(path.read_bytes())
        i = data.draw(st.integers(0, len(blob) - 1), label="offset")
        if kind == "replace":
            blob[i] = byte
        elif kind == "insert":
            blob.insert(i, byte)
        else:
            del blob[i:]
        path.write_bytes(bytes(blob))
        try:
            read_trace_jsonl(path)
        except DataError as exc:
            assert str(path) in str(exc)


_EDGE_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300]),
                        st.floats(-1e300, 1e300))  # finite: magnitudes and ratios stay finite


@st.composite
def _step_records(draw):
    """Step records as the loop makes them: rows that ran step k in
    original order (each row runs 1..4 steps, so rows leave at different
    steps), cursors that advance by each row's integer lengths, C in 1..3
    and a forced flag per step; plus per-row meta and category names."""
    C, H, n_var, R = (draw(st.integers(1, hi)) for hi in (3, 3, 3, 6))

    def floats(*shape):
        return np.array(draw(st.lists(_EDGE_FLOATS, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))))).reshape(shape)

    n_steps = np.array(draw(st.lists(st.integers(1, 4), min_size=R, max_size=R)))
    cursor, records = np.ones(R, dtype=np.int64), []
    for k in range(n_steps.max()):
        rows = np.flatnonzero(n_steps > k)
        n = len(rows)
        len_int = np.array(draw(st.lists(st.integers(1, 50), min_size=n, max_size=n)))
        category = np.array(draw(st.lists(st.integers(0, C - 1), min_size=n, max_size=n)))
        records.append(StepRecord(k, rows, cursor[rows], category, floats(n, C), floats(n, 1),
                                  len_int, floats(n, H), floats(n, H), draw(st.booleans())))
        cursor = cursor.copy()
        cursor[rows] += len_int
    meta = (np.arange(R) // n_var, np.arange(R) % n_var, floats(R))
    return records, meta, ("single",) if C == 1 else ("short", "mid", "long")[:C]


@settings(max_examples=100, deadline=None)
@given(case=_step_records())
def test_traces_built_from_step_records_round_trip_through_jsonl(case):
    """`build_traces` equals the per-step builder the loop ran before it
    (tests/step_records.py), and its traces read back from JSONL as they
    were written, bit for bit: the reprs compare signed zeros and types."""
    records, meta, names = case
    built = build_traces(records, meta, names)
    oracle = per_step_traces(records, meta, names)
    assert built == oracle and repr(built) == repr(oracle)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        write_trace_jsonl(built, path)
        back = read_trace_jsonl(path)
    assert back == built and repr(back) == repr(built)


def test_override_rejects_no_sched(small_windows):
    model = LeapTS(toy_config(n_variates=1, look_back=24, horizon=8), ablation="no_sched")
    with pytest.raises(DataError):
        trace_override(model, small_windows, "fixed", 4)


def test_override_rejects_bad_mode(small_model, small_windows):
    with pytest.raises(DataError):
        trace_override(small_model, small_windows, "nonsense", 1)
