import json
import tempfile
import warnings
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leapts.errors import ConfigError, DataError, NumericError, ShapeError
from leapts.autodiff import Tape
from leapts.forward import forecast, forward_rows, predict_batch
from leapts.model import LeapTS, ModelConfig
from leapts.synth import ScenarioSpec
from leapts.training import TrainConfig

from conftest import toy_config


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(look_back=0, horizon=8, n_variates=1)
    with pytest.raises(ConfigError):
        ModelConfig(look_back=8, horizon=8, n_variates=2, n_clusters=3)
    with pytest.raises(ConfigError):
        ModelConfig(look_back=8, horizon=8, n_variates=1, mask_temp=0.0)
    with pytest.raises(ConfigError):
        ModelConfig(look_back=8, horizon=8, n_variates=1, dt_min=2.0, dt_max=1.0)
    for width in ("hidden_dim", "latent_dim", "summary_dim", "control_dim", "field_hidden"):
        for value in (0, -1):
            with pytest.raises(ConfigError, match=f"requires {width} >= 1$"):
                ModelConfig(look_back=8, horizon=8, n_variates=1, **{width: value})
    wrong = {"hidden_dim": 8.5, "field_hidden": 2.5, "n_clusters": 1.0, "max_steps": 1.5,
             "seed": True, "enc_hidden": (2.7,), "window_norm": "no", "horizon": np.float64(8)}
    for name, value in wrong.items():
        with pytest.raises(ConfigError, match=rf"{name} has the wrong type \("):
            ModelConfig(**{"look_back": 8, "horizon": 8, "n_variates": 1, name: value})
    for name, value in {"batch_size": 8.5, "stride": 1.5, "max_batches_per_epoch": 2.0,
                        "patience": False, "normalize": 0}.items():
        with pytest.raises(ConfigError, match=rf"{name} has the wrong type \("):
            TrainConfig(**{name: value})
    with pytest.raises(ConfigError, match="requires seed >= 0$"):
        ModelConfig(look_back=8, horizon=8, n_variates=1, seed=-1)
    # dt_min and max_steps default from horizon: a bad one is named, not a division error
    for horizon, match in ((0, "requires horizon >= 1$"), ("8", r"horizon has the wrong type \(")):
        with pytest.raises(ConfigError, match=match):
            ModelConfig(look_back=8, horizon=horizon, n_variates=1)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1$"):
        TrainConfig(seed=-1)
    cfg = ModelConfig(look_back=np.int64(8), horizon=8, n_variates=1, enc_hidden=[np.int32(4)])
    assert type(cfg.look_back) is int and cfg.enc_hidden == (4,)
    assert type(cfg.enc_hidden[0]) is int
    assert TrainConfig(batch_size=np.int64(4)).batch_size == 4



@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ModelConfig(look_back=8, horizon=8, n_variates=1, mask_temp=np.inf),
         "requires 0 < mask_temp < inf$"),
        (lambda: ModelConfig(look_back=8, horizon=8, n_variates=1, gumbel_temp=np.inf),
         "requires 0 < gumbel_temp < inf$"),
        (lambda: ModelConfig(look_back=8, horizon=8, n_variates=1, dt_max=np.inf),
         "requires 0 < dt_min <= dt_max < inf$"),
        (lambda: ModelConfig(look_back=8, horizon=8, n_variates=1, dt_min=np.inf, dt_max=np.inf),
         "requires 0 < dt_min <= dt_max < inf$"),
        (lambda: TrainConfig(gumbel_tau_end=np.inf),
         "gumbel_tau_end must be positive and finite, got inf$"),
    ],
    ids=["mask_temp", "gumbel_temp", "dt_max", "dt_min_and_dt_max", "gumbel_tau_end"],
)
def test_infinite_float_settings_are_config_errors(make, message):
    with pytest.raises(ConfigError, match=message):
        make()


_DESK = {"look_back": 8, "horizon": 8, "n_variates": 1}


@pytest.mark.parametrize(
    "make, field",
    [
        *((lambda f=f: ModelConfig(**_DESK, **{f: True}), f)
          for f in ("mask_temp", "gumbel_temp", "dt_min", "dt_max")),
        *((lambda f=f: TrainConfig(**{f: True}), f) for f in ("lr", "huber_delta", "gumbel_tau_end")),
        (lambda: ScenarioSpec(3, dt=True), "dt"),
        (lambda: TrainConfig(lr=np.bool_(False)), "lr"),
        (lambda: ModelConfig(**_DESK, mask_temp="0.1"), "mask_temp"),
    ],
    ids=["mask_temp", "gumbel_temp", "dt_min", "dt_max", "lr", "huber_delta", "gumbel_tau_end",
         "scenario_dt", "lr_numpy_bool", "mask_temp_str"],
)
def test_float_settings_refuse_booleans(make, field):
    """A bool (or any non-number) in a float setting is a `ConfigError`
    naming the field; it used to run as 1.0 or 0.0."""
    with pytest.raises(ConfigError, match=rf"{field} has the wrong type \("):
        make()


def test_float_settings_keep_numbers_as_given():
    cfg = TrainConfig(lr=1, huber_delta=np.float32(0.5), gumbel_tau_end=np.float64(0.2))
    assert (type(cfg.lr), type(cfg.huber_delta)) == (int, np.float32)
    assert ScenarioSpec(3, dt=np.float64(0.01)).dt == 0.01

def encode(model, window):
    """Latents [N x latent_dim] of one window [L x N], one row per variate."""
    return model.encode_rows(window.T)[-1]


def test_encode_shape_contract():
    model = LeapTS(ModelConfig(look_back=96, horizon=60, n_variates=7, hidden_dim=12))
    z = encode(model, np.random.default_rng(0).normal(size=(96, 7)))
    assert z.shape == (7, 12)


def test_encode_rejects_bad_input(toy_model):
    with pytest.raises(ShapeError):
        predict_batch(toy_model, np.zeros((1, 5, 2)))
    bad = np.zeros((1, 24, 2))
    bad[0, 3, 1] = np.nan
    with pytest.raises(NumericError):
        predict_batch(toy_model, bad)


_SKELETON_FAULTS = [  # (parameter, value, the stage it makes non-finite)
    ("enc_w0", np.inf, "encoder layer 0 pre-activation"),
    ("enc_b1", np.nan, "encoder layer 1 output"),
    ("coarse_w", np.inf, "coarse forecast"),
    ("state_init_b", np.nan, "initial state pre-activation"),
    ("fuse_logit", np.nan, "fusion gate"),
    ("coarse_b", 1e308, "rescaled coarse forecast"),  # with window_norm: times sd > 1
]


def test_skeleton_stage_names_its_numeric_error(rng):
    """A non-finite value made outside the scheduling loop raises
    `NumericError` naming the stage that made it, with and without a tape."""
    x = 5.0 * rng.normal(size=(2, 24, 2))
    for name, value, stage in _SKELETON_FAULTS:
        model = LeapTS(toy_config(window_norm=stage.startswith("rescaled")))
        model.store[name].data.flat[0] = value
        for taped in (False, True):
            with pytest.raises(NumericError, match=f"^non-finite values in {stage}$"), \
                    np.errstate(over="ignore", invalid="ignore"), Tape() if taped else nullcontext():
                forward_rows(model, x, mode="eval")
    with pytest.raises(NumericError, match="^non-finite values in fused forecast$"):
        with np.errstate(over="ignore"):
            LeapTS(toy_config()).fuse(np.full((1, 1), 1.7e308), np.full((1, 1), 1.7e308))


def test_zero_window_gives_equal_rows(toy_model):
    z = encode(toy_model, np.zeros((24, 2)))
    assert np.array_equal(z[0], z[1])


def test_identical_histories_identical_latents(toy_model, rng):
    col = rng.normal(size=24)
    z = encode(toy_model, np.stack([col, col], axis=1))
    assert np.array_equal(z[0], z[1])


def test_variate_permutation_permutes_latents(rng):
    model = LeapTS(toy_config(n_variates=4))
    window = rng.normal(size=(24, 4))
    perm = [2, 0, 3, 1]
    z = encode(model, window)
    zp = encode(model, window[:, perm])
    assert np.array_equal(zp, z[perm])


def test_coarse_zero_latent_zero_forecast(toy_model):
    out = toy_model.coarse_rows(np.zeros((2, 8)))
    assert np.array_equal(out, np.zeros((2, 8)))


def test_coarse_shape_and_linearity(rng):
    model = LeapTS(ModelConfig(look_back=96, horizon=60, n_variates=7, hidden_dim=16))
    z = rng.normal(size=(7, 16))
    one = model.coarse_rows(z)
    two = model.coarse_rows(2.0 * z)
    assert one.shape == (7, 60)
    assert np.allclose(two, 2.0 * one, atol=1e-12)  # biases init to zero


def test_fuse_identity_and_gate(toy_model, rng):
    coarse = np.array([[1.0, 1.0]])
    sched = np.array([[2.0, 2.0]])
    assert toy_model.alpha == 0.5  # logit initialized at zero
    fused = toy_model.fuse(coarse, sched)
    assert np.array_equal(fused, [[2.0, 2.0]])

    toy_model.store["fuse_logit"].data[:] = -40.0  # gate closed
    fused = toy_model.fuse(coarse, sched)
    assert np.allclose(fused, coarse, atol=1e-15)
    assert 0.0 < toy_model.alpha < 1.0


def test_alpha_is_the_gate_fuse_applies():
    model = LeapTS(toy_config())
    zeros, ones = np.zeros((1, 1)), np.ones((1, 1))
    for logit in (-3.7, 0.0, 5.0):
        model.store["fuse_logit"].data[:] = logit
        assert model.alpha == model.fuse(zeros, ones)[0, 0]
    model.store["fuse_logit"].data[:] = -800.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model.alpha == 0.0


def test_fusion_identity_full_forward(rng):
    model = LeapTS(toy_config())
    pair, _ = forecast(model, rng.normal(size=(24, 2)))
    assert np.allclose(pair.fused - pair.coarse, pair.alpha * pair.sched, atol=1e-12)


def test_init_state_zero_and_bounded(toy_model, rng):
    h0 = toy_model.init_state_rows(np.zeros((2, 8)))
    assert np.array_equal(h0, np.zeros((2, 8)))
    h = toy_model.init_state_rows(rng.normal(size=(2, 8)))
    assert np.abs(h).max() < 1.0
    # float64 tanh saturates to exactly 1 for huge inputs; still bounded
    h = toy_model.init_state_rows(rng.normal(scale=1e6, size=(2, 8)))
    assert np.abs(h).max() <= 1.0


def test_forward_outputs_finite_over_random_inputs(rng):
    model = LeapTS(toy_config(seed=11))
    for _ in range(10):
        scale = float(rng.uniform(0.1, 20.0))
        pair, _ = forecast(model, rng.normal(scale=scale, size=(24, 2)))
        assert np.all(np.isfinite(pair.fused))
        assert np.all(np.isfinite(pair.coarse))


def test_window_norm_roundtrip_consistency(rng):
    cfg = toy_config(window_norm=True)
    model = LeapTS(cfg)
    window = 5.0 + 3.0 * rng.normal(size=(24, 2))
    pair, _ = forecast(model, window)
    assert np.all(np.isfinite(pair.fused))
    assert np.allclose(pair.fused - pair.coarse, pair.alpha * pair.sched, atol=1e-9)


def test_checkpoint_roundtrip_bit_exact(tmp_path, rng):
    model = LeapTS(toy_config(seed=9))
    model.cluster_of_variate = np.array([0, 0])
    model.data_norm = (np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    x = rng.normal(size=(3, 24, 2))
    before, _ = predict_batch(model, x)
    path = tmp_path / "model.ckpt"
    model.save(path)
    loaded = LeapTS.load(path)
    after, _ = predict_batch(loaded, x)
    assert np.array_equal(before, after)
    assert loaded.ablation == model.ablation
    assert np.array_equal(loaded.data_norm[1], [3.0, 4.0])


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b'{"magic": "NOPE"}\n')
    with pytest.raises(DataError, match="magic"):
        LeapTS.load(path)
    path.write_bytes(b"\x00\x01binarygarbage\n")
    with pytest.raises(DataError):
        LeapTS.load(path)


def _drop_last_param(header, body):
    last = header["params"].pop()
    return header, body[: -8 * int(np.prod(last["shape"]))]


def _transpose_enc_w0(header, body):
    header["params"][0]["shape"] = header["params"][0]["shape"][::-1]
    return header, body


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (lambda h, b: ({k: v for k, v in h.items() if k != "config"}, b), "lacks"),
        (lambda h, b: ({**h, "config": {**h["config"], "wat": 1}}, b), "wat"),
        (_drop_last_param, "missing parameter"),
        (_transpose_enc_w0, "has shape"),
        (lambda h, b: (h, b + b"\0"), "trailing bytes"),
        (lambda h, b: ({**h, "clusters": [0, 1]}, b), "clusters"),
        (lambda h, b: ({**h, "data_norm": {"mean": [0.0], "std": [1.0]}}, b), "data_norm"),
        (lambda h, b: ({**h, "config": {**h["config"], "hidden_dim": 8.0}}, b), "wrong type"),
    ],
    ids=["no_config", "unknown_config_key", "missing_param", "shape_mismatch",
         "trailing_bytes", "cluster_out_of_range", "data_norm_width", "float_width"],
)
def test_checkpoint_rejects_malformed_file(tmp_path, corrupt, match):
    path = tmp_path / "model.ckpt"
    LeapTS(toy_config()).save(path)
    line, body = path.read_bytes().split(b"\n", 1)
    header, body = corrupt(json.loads(line), body)
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    with pytest.raises(DataError, match=match) as info:
        LeapTS.load(path)
    assert str(path) in str(info.value)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["replace", "insert", "truncate"]),
       byte=st.integers(0, 255))
def test_corrupted_checkpoint_loads_or_raises_data_error(data, kind, byte):
    """One byte replaced or inserted, or the file cut short anywhere: the
    checkpoint either loads or raises `DataError` naming the file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        LeapTS(toy_config()).save(path)
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
            LeapTS.load(path)
        except DataError as exc:
            assert str(path) in str(exc)


def test_ablation_param_counts():
    cfg = toy_config()
    full = LeapTS(cfg).store.n_values()
    no_hl = LeapTS(cfg, ablation="no_high_level").store.n_values()
    no_sched = LeapTS(cfg, ablation="no_sched").store.n_values()
    assert no_sched < no_hl < full


def test_unknown_ablation_rejected():
    with pytest.raises(ConfigError):
        LeapTS(toy_config(), ablation="bogus")
