"""Pinned bits: the SHA-256 of what fixed, untrained models compute from
fixed inputs, committed as a table, so a change that moves a bit fails here.

Three models: the desk config (L=96, P=24, one variate, single level) and
three scales with three clusters at L=P=96 over 30 variates, without and
with ``window_norm``. Each pins its tape-free forecasts (eval, soft,
override and step-cap modes), one training batch's loss and every
gradient, a traced ``evaluate``'s trace JSONL bytes, its checkpoint bytes
and the ``float.hex`` of the ``trace_override`` reports; the desk model
also pins its parameters after a short ``train()`` on a scenario-3 series.

The digests depend on the BLAS kernels numpy runs, so the table records
the numpy version and BLAS build it was made with, and a mismatch names
both. A change that moves bits on purpose regenerates the table with
``PYTHONPATH=src python tests/test_bit_pins.py`` and says which digests
moved and why.
"""

from __future__ import annotations

import hashlib
import pprint
import tempfile
from pathlib import Path

import numpy as np
import pytest

from leapts.autodiff import Tape
from leapts.data import Dataset, WindowBatch
from leapts.diagnostics import partitions_to_override, sample_partition, trace_override
from leapts.forward import forward_loss, forward_rows
from leapts.model import LeapTS, ModelConfig
from leapts.synth import ScenarioSpec, gen_scenario3
from leapts.traces import write_trace_jsonl
from leapts.training import TrainConfig, evaluate, train

MODELS = {
    "desk": dict(look_back=96, horizon=24, n_variates=1, hidden_dim=16, enc_hidden=(32,), seed=0),
    "g3c3": dict(look_back=96, horizon=96, n_variates=30, n_clusters=3, hidden_dim=8,
                 summary_dim=4, control_dim=4, enc_hidden=(16,), field_hidden=8, seed=1),
}
MODELS["g3c3_norm"] = {**MODELS["g3c3"], "window_norm": True}
N_WINDOWS = {"desk": 16, "g3c3": 4, "g3c3_norm": 4}


def blas_line() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})"


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(f"{p.dtype.str}{p.shape}".encode())
            p = np.ascontiguousarray(p).tobytes()
        elif isinstance(p, float):
            p = p.hex().encode()
        elif isinstance(p, str):
            p = p.encode()
        h.update(p)
    return h.hexdigest()


def _model(name: str, **extra) -> LeapTS:
    model = LeapTS(ModelConfig(**{**MODELS[name], **extra}))
    model.cluster_of_variate = np.arange(model.config.n_variates) % model.config.n_clusters
    return model


def _windows(name: str) -> WindowBatch:
    cfg = MODELS[name]
    rng = np.random.default_rng(7)
    b, n = N_WINDOWS[name], cfg["n_variates"]
    walk = rng.normal(size=(b, cfg["look_back"] + cfg["horizon"], n)).cumsum(axis=1) * 0.1
    return WindowBatch(walk[:, : cfg["look_back"]], walk[:, cfg["look_back"] :], np.arange(b))


def _override(model: LeapTS, rows: int):
    """Random partitions, one per row, as forced schedules."""
    rng = np.random.default_rng(3)
    return partitions_to_override([sample_partition(model.config.horizon, rng)
                                   for _ in range(rows)], model.anchors)


def _forecasts(out) -> str:
    return _sha(out["coarse"].data, out["sched"].data, out["fused"].data)


def model_digests(name: str, tmp: Path) -> dict:
    model, w = _model(name), _windows(name)
    x, rows = w.inputs, w.n_windows * model.config.n_variates
    C = model.anchors.n_categories
    noise = [np.random.default_rng(11).gumbel(size=(rows, C)) for _ in range(model.config.horizon)]
    out = {
        "eval": _forecasts(forward_rows(model, x)),
        "soft": _forecasts(forward_rows(model, x, mode="soft", frozen_noise=noise)),
        "override": _forecasts(forward_rows(model, x, override=_override(model, rows))),
        "step_cap": _forecasts(forward_rows(_model(name, max_steps=2), x)),
    }
    with Tape() as tape:
        loss, _ = forward_loss(model, x, w.targets, mode="train", rng=np.random.default_rng(5))
        model.store.zero_grads()
        tape.backward(loss)
    out["train_batch"] = _sha(loss.item(), *(t.grad for t in model.store.params.values()))
    _, traces = evaluate(model, w, collect_traces=True)
    write_trace_jsonl(traces, tmp / f"{name}.jsonl")
    out["trace_jsonl"] = _sha((tmp / f"{name}.jsonl").read_bytes())
    model.save(tmp / f"{name}.ckpt")
    out["checkpoint"] = _sha((tmp / f"{name}.ckpt").read_bytes())
    for mode, value in (("fixed", 1), ("fixed", 7), ("fixed", model.config.horizon),
                        ("monte_carlo", 3)):
        report = trace_override(model, w, mode, value, rng=np.random.default_rng(9))
        out[f"{mode}:{value}"] = f"{report.mse.hex()} {report.mae.hex()}"
    return out


def trained_digest() -> str:
    """The desk model's parameters after two Adam steps on a scenario-3 series."""
    series = gen_scenario3(ScenarioSpec(3, total_steps=1200, seed=0)).values
    model, _ = train(_model("desk"), Dataset(values=series),
                     TrainConfig(batch_size=32, max_epochs=1, max_batches_per_epoch=2, stride=8))
    return _sha(*(t.data for t in model.store.params.values()))


def compute_digests() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = {f"{name}/{k}": v for name in MODELS
               for k, v in model_digests(name, Path(tmp)).items()}
    out["desk/trained"] = trained_digest()
    return out


NUMPY = "2.4.6"
BLAS = ("scipy-openblas 0.3.31.188.0 (OpenBLAS 0.3.31.188.0 "
        " USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64)")
PINNED = {
    "desk/checkpoint": "4e2c297242805df29a8f6f7ae9e4ddec1cd280b3e66b16ac30d399a0bb2958db",
    "desk/eval": "eac372b8c3d2169baf547d13871770db0fce91b9cc2095bc27a606864e5d4965",
    "desk/fixed:1": "0x1.0165a9bc1df10p+1 0x1.334b6f6110864p+0",
    "desk/fixed:24": "0x1.0332fb14b6b67p+1 0x1.3577a661f1164p+0",
    "desk/fixed:7": "0x1.046184ba8e069p+1 0x1.33e8a7a64dd93p+0",
    "desk/monte_carlo:3": "0x1.0889d10448a80p+1 0x1.376883240c5e1p+0",
    "desk/override": "6f2efcb3b7ce6f06b544321eda3c24c561190a7128fb4abe143ba56c65d5e3b7",
    "desk/soft": "eac372b8c3d2169baf547d13871770db0fce91b9cc2095bc27a606864e5d4965",
    "desk/step_cap": "bc1c5a9a719833a0f89d57c9320575cfa56517ca62cee94932ee7b9bffec1858",
    "desk/trace_jsonl": "29ad4448bf5bb71b8cdaf8be9df38d56ae008cc3960753eca109e079c337d838",
    "desk/train_batch": "c7ada05bcd2afcb7b5279e2a32156d96d98592fad0a250e30877883546f936e7",
    "desk/trained": "5e3681fe5e6e79837e93935ce5220253d87d38a9836b877c0f7945933508d948",
    "g3c3/checkpoint": "9b17f5a53c18dddd9563d7d6c20265a5a8384cbb8bb30266d4d7ab3ee10f8c8b",
    "g3c3/eval": "80c8f4ab20345ae41c676789a238a3b58260b4fe230de27f7c23f2a6fcd6e2e1",
    "g3c3/fixed:1": "0x1.7758b22e9fc13p+0 0x1.d80e4324cd66bp-1",
    "g3c3/fixed:7": "0x1.77652dbe28e8bp+0 0x1.d809008a78953p-1",
    "g3c3/fixed:96": "0x1.732c7ff5e8dedp+0 0x1.d537c980a8ba0p-1",
    "g3c3/monte_carlo:3": "0x1.7304629172699p+0 0x1.d516907f3c41fp-1",
    "g3c3/override": "f4fb7a747340747920013871b4bac683d5aa57177685e25f2a71a11cc8dc4574",
    "g3c3/soft": "f5e9a3632e71288e30356baabfefdbcf4b45316404a1edf9771d317bf3412744",
    "g3c3/step_cap": "a11b9f1b330ce7a8a7050bff9c995af585254084738d41209e88c9cd6f7475fd",
    "g3c3/trace_jsonl": "8e28e536c57674b7d28c214e51c6ac01cfee8cb0e24a544b2fba135eb033dc1a",
    "g3c3/train_batch": "c342e754a3157cab05c5fcc0f68335ed831b82d8c399bf01ac9355db2c50a16e",
    "g3c3_norm/checkpoint": "65a3a4df40514a5b8b8fb8ee3bf0909f9ebe5606ffb35624cc42739e57916988",
    "g3c3_norm/eval": "364cef70a86e4f50f80d7355b1f6c73f9b9b909d28a982d5d00e23dd768d6e36",
    "g3c3_norm/fixed:1": "0x1.813bf8ab0c034p-1 0x1.50e75061e6014p-1",
    "g3c3_norm/fixed:7": "0x1.813c0ffaa6e43p-1 0x1.50e8151eb07e9p-1",
    "g3c3_norm/fixed:96": "0x1.8118f7727dd8cp-1 0x1.50aab770dae04p-1",
    "g3c3_norm/monte_carlo:3": "0x1.80c59ca0464b5p-1 0x1.50935f6a4ce81p-1",
    "g3c3_norm/override": "d53288055d10456413317170110c19f7c2133c42e67487f1d86aadb16bd4f26a",
    "g3c3_norm/soft": "61b8f4c35e15fd4f643d948704ee71c6775f95ac7d18b5feacb21feac6245fb9",
    "g3c3_norm/step_cap": "0da00e328ef8315989c791a315a3f8f3369b56c1c44d32401dfca0061df9d45c",
    "g3c3_norm/trace_jsonl": "f96210a5ba6a1992a35b2d6e8752beb5c3d8b784455be204c6cb34b3fcf2600f",
    "g3c3_norm/train_batch": "e71c16a925dc18786b9d097d093de752741a456b51f0446d426fdad9332f94cd",
}


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


def test_the_table_covers_every_digest(digests):
    assert sorted(digests) == sorted(PINNED)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_digest_is_pinned(digests, key):
    assert digests[key] == PINNED[key], (
        f"{key} moved; the table was made with numpy {NUMPY}, {BLAS}; "
        f"this run has numpy {np.__version__}, {blas_line()}"
    )


if __name__ == "__main__":
    print(f"NUMPY = {np.__version__!r}\nBLAS = {blas_line()!r}")
    print("PINNED = " + pprint.pformat(compute_digests(), width=100))
