import json
import warnings

import numpy as np
import pytest

from leapts.autodiff import Tape, Tensor
from leapts.errors import ConfigError, DataError, NumericError, ShapeError
from leapts.forward import forecast, predict_batch
from leapts.model import LeapTS, ModelConfig

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


def encode(model, window):
    """Latents [N x latent_dim] of one window [L x N], one row per variate."""
    return model.encode_rows(Tensor(window.T)).data


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


def test_dense_layer_is_one_tape_node(toy_model, rng):
    """The two-layer encoder records two nodes: bias and tanh ride in `linear`."""
    with Tape() as tape:
        toy_model.encode_rows(Tensor(rng.normal(size=(3, 24))))
    assert len(tape.nodes) == 2


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
    out = toy_model.coarse_rows(Tensor(np.zeros((2, 8))))
    assert np.array_equal(out.data, np.zeros((2, 8)))


def test_coarse_shape_and_linearity(rng):
    model = LeapTS(ModelConfig(look_back=96, horizon=60, n_variates=7, hidden_dim=16))
    z = rng.normal(size=(7, 16))
    one = model.coarse_rows(Tensor(z))
    two = model.coarse_rows(Tensor(2.0 * z))
    assert one.shape == (7, 60)
    assert np.allclose(two.data, 2.0 * one.data, atol=1e-12)  # biases init to zero


def test_fuse_identity_and_gate(toy_model, rng):
    coarse = Tensor(np.array([[1.0, 1.0]]))
    sched = Tensor(np.array([[2.0, 2.0]]))
    assert toy_model.alpha == 0.5  # logit initialized at zero
    fused = toy_model.fuse(coarse, sched)
    assert np.array_equal(fused.data, [[2.0, 2.0]])

    toy_model.store["fuse_logit"].data[:] = -40.0  # gate closed
    fused = toy_model.fuse(coarse, sched)
    assert np.allclose(fused.data, coarse.data, atol=1e-15)
    assert 0.0 < toy_model.alpha < 1.0


def test_alpha_is_the_gate_fuse_applies():
    model = LeapTS(toy_config())
    zeros, ones = Tensor(np.zeros((1, 1))), Tensor(np.ones((1, 1)))
    for logit in (-3.7, 0.0, 5.0):
        model.store["fuse_logit"].data[:] = logit
        assert model.alpha == model.fuse(zeros, ones).data[0, 0]
    model.store["fuse_logit"].data[:] = -800.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model.alpha == 0.0


def test_fusion_identity_full_forward(rng):
    model = LeapTS(toy_config())
    pair, _ = forecast(model, rng.normal(size=(24, 2)))
    assert np.allclose(pair.fused - pair.coarse, pair.alpha * pair.sched, atol=1e-12)


def test_init_state_zero_and_bounded(toy_model, rng):
    h0 = toy_model.init_state_rows(Tensor(np.zeros((2, 8))))
    assert np.array_equal(h0.data, np.zeros((2, 8)))
    h = toy_model.init_state_rows(Tensor(rng.normal(size=(2, 8))))
    assert np.abs(h.data).max() < 1.0
    # float64 tanh saturates to exactly 1 for huge inputs; still bounded
    h = toy_model.init_state_rows(Tensor(rng.normal(scale=1e6, size=(2, 8))))
    assert np.abs(h.data).max() <= 1.0


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
    ],
    ids=["no_config", "unknown_config_key", "missing_param", "shape_mismatch",
         "trailing_bytes", "cluster_out_of_range", "data_norm_width"],
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


def test_ablation_param_counts():
    cfg = toy_config()
    full = LeapTS(cfg).store.n_values()
    no_hl = LeapTS(cfg, ablation="no_high_level").store.n_values()
    no_sched = LeapTS(cfg, ablation="no_sched").store.n_values()
    assert no_sched < no_hl < full


def test_unknown_ablation_rejected():
    with pytest.raises(ConfigError):
        LeapTS(toy_config(), ablation="bogus")
