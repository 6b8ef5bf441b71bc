import numpy as np
import pytest

from leapts.model import LeapTS, ModelConfig


def toy_config(**kw) -> ModelConfig:
    base = dict(
        look_back=24,
        horizon=8,
        n_variates=2,
        hidden_dim=8,
        summary_dim=4,
        control_dim=4,
        enc_hidden=(16,),
        field_hidden=8,
        seed=3,
    )
    base.update(kw)
    return ModelConfig(**base)


def override_of(rows) -> tuple[np.ndarray, ...]:
    """Per-row lists of (category, len_cont, len_int) steps as the loop's
    three [R x S] override arrays, each row zero-padded to the longest."""
    table = np.zeros((len(rows), max(map(len, rows), default=0), 3))
    for r, steps in enumerate(rows):
        table[r, : len(steps)] = np.reshape(steps, (-1, 3))
    return table[..., 0].astype(np.int64), table[..., 1].copy(), table[..., 2].astype(np.int64)


@pytest.fixture
def toy_model() -> LeapTS:
    return LeapTS(toy_config())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
