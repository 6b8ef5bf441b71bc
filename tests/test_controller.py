import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape_ops as ops
from leapts.anchors import scale_anchors
from leapts.autodiff import Tape, Tensor
from leapts.controller import (
    gumbel_softmax_select,
    length_candidates,
    round_and_clip_rows,
    route_lengths,
)
from leapts.errors import ConfigError


# -- scale anchors -------------------------------------------------------------


@pytest.mark.parametrize(
    "L,P,expected",
    [
        (96, 60, [(1, 24), (25, 48), (49, 60)]),
        (36, 36, [(1, 9), (10, 18), (19, 36)]),
    ],
)
def test_anchor_hand_cases(L, P, expected):
    a = scale_anchors(L, P)
    assert not a.degenerate
    assert list(zip(a.mins, a.maxs)) == expected


def test_anchor_degenerate_case():
    a = scale_anchors(96, 18)
    assert a.degenerate
    assert (a.mins, a.maxs) == ((1,), (18,))


def test_anchor_rejects_nonpositive():
    with pytest.raises(ConfigError):
        scale_anchors(0, 5)
    with pytest.raises(ConfigError):
        scale_anchors(5, 0)


@settings(max_examples=300, deadline=None)
@given(L=st.integers(8, 720), P=st.integers(2, 720))
def test_anchor_intervals_cover_horizon(L, P):
    a = scale_anchors(L, P)
    assert a.degenerate == (P <= L // 4 + 1)
    covered = np.zeros(P + 2, dtype=bool)
    prev_max = 0
    for lo, hi in zip(a.mins, a.maxs):
        assert 1 <= lo <= hi <= P
        assert hi >= prev_max
        prev_max = hi
        covered[lo : hi + 1] = True
    assert covered[1 : P + 1].all()


def test_category_of_length_unique_under_coverage():
    a = scale_anchors(96, 60)
    cats = [a.category_of_length(l) for l in range(1, 61)]
    assert cats == sorted(cats)
    assert set(cats) == {0, 1, 2}


# -- high-level selection -------------------------------------------------------


def test_equal_logits_eval_mode_uniform_soft_first_index_ties():
    soft, hard = gumbel_softmax_select(np.array([[0.0, 0.0, 0.0]]), tau=1.0, noise=None)
    assert np.allclose(soft, 1.0 / 3.0, atol=1e-12)
    assert np.array_equal(hard, [[1.0, 0.0, 0.0]])


def test_peaked_logits_eval_mode():
    soft, hard = gumbel_softmax_select(np.array([[10.0, 0.0, 0.0]]), tau=1.0, noise=None)
    e10 = math.exp(10.0)
    expect = np.array([e10, 1.0, 1.0]) / (e10 + 2.0)
    assert np.allclose(soft[0], expect, atol=1e-9)
    assert soft[0, 0] == pytest.approx(0.99990, abs=2e-5)
    assert soft[0, 1] == pytest.approx(4.54e-5, abs=1e-7)
    assert np.array_equal(hard, [[1.0, 0.0, 0.0]])


def test_gumbel_max_frequencies_match_softmax(rng):
    logits = np.array([1.0, 0.0, -1.0])
    n = 20000
    soft, hard = gumbel_softmax_select(
        np.tile(logits, (n, 1)), tau=1.0, noise=rng.gumbel(size=(n, 3))
    )
    freq = hard.mean(axis=0)
    target = np.exp(logits) / np.exp(logits).sum()
    assert np.abs(freq - target).max() < 0.02


def test_hard_matches_argmax_of_soft(rng):
    logits = rng.normal(size=(50, 3))
    soft, hard = gumbel_softmax_select(logits, tau=0.7, noise=rng.gumbel(size=(50, 3)))
    assert np.array_equal(hard.argmax(axis=1), soft.argmax(axis=1))
    assert np.array_equal(hard.sum(axis=1), np.ones(50))


def test_eval_mode_deterministic(rng):
    h = rng.normal(size=(4, 6))
    w = rng.normal(size=(6, 3))
    a = gumbel_softmax_select(h @ w, tau=1.0, noise=None)
    b = gumbel_softmax_select(h @ w, tau=1.0, noise=None)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_temperature_must_be_positive():
    with pytest.raises(ConfigError):
        gumbel_softmax_select(np.array([[0.0, 1.0, 2.0]]), tau=0.0, noise=None)


# -- low-level lengths ----------------------------------------------------------


def heads_with_bias(anchors, biases, d_h=4):
    return [(np.zeros((d_h, 1)), np.array([b])) for b in biases]


def test_zero_raw_output_gives_interval_midpoint():
    anchors = scale_anchors(96, 60)
    heads = heads_with_bias(anchors, [0.0, 0.0, 0.0])
    lens, _, _ = length_candidates(np.zeros((1, 4)), anchors, heads)
    mids = [(lo + hi) / 2 for lo, hi in zip(anchors.mins, anchors.maxs)]
    assert np.allclose(lens[0], mids, atol=1e-12)


def test_saturated_head_reaches_upper_bound():
    anchors = scale_anchors(96, 60)
    heads = heads_with_bias(anchors, [500.0, 0.0, 0.0])
    lens, _, _ = length_candidates(np.zeros((1, 4)), anchors, heads)
    assert lens[0, 0] == pytest.approx(24.0, abs=1e-9)


def test_length_mapping_hand_case():
    anchors = scale_anchors(96, 60)
    raw = math.log(0.7 / 0.3)  # sigmoid -> 0.7
    heads = heads_with_bias(anchors, [0.0, raw, 0.0])
    soft, hard = gumbel_softmax_select(np.array([[0.0, 5.0, 0.0]]), tau=1.0, noise=None)
    lengths, _, _ = length_candidates(np.zeros((1, 4)), anchors, heads)
    sel, _, chosen = route_lengths(lengths, soft, hard, mode="eval")
    assert chosen[0] == 1
    assert sel[0, 0] == pytest.approx(25 + 23 * 0.7, abs=1e-9)
    assert anchors.mins[1] <= sel[0, 0] <= anchors.maxs[1]
    assert soft[0].argmax() == chosen[0]


def test_hard_routing_is_exact():
    anchors = scale_anchors(96, 60)
    heads = heads_with_bias(anchors, [0.3, -0.2, 0.9])
    soft, hard = gumbel_softmax_select(np.array([[0.0, 0.0, 3.0]]), tau=1.0, noise=None)
    lengths, _, _ = length_candidates(np.zeros((1, 4)), anchors, heads)
    sel, route, _ = route_lengths(lengths, soft, hard, mode="train")
    assert sel[0, 0] == lengths[0, 2]
    assert np.array_equal(route, hard)


def test_soft_routing_mixes_lengths():
    anchors = scale_anchors(96, 60)
    heads = heads_with_bias(anchors, [0.3, -0.2, 0.9])
    soft, hard = gumbel_softmax_select(np.array([[0.5, 0.0, 1.0]]), tau=1.0, noise=None)
    lengths, _, _ = length_candidates(np.zeros((1, 4)), anchors, heads)
    sel, route, chosen = route_lengths(lengths, soft, hard, mode="soft")
    assert sel[0, 0] == pytest.approx(float(lengths[0] @ soft[0]), abs=1e-12)
    assert route is soft and chosen[0] == 2


def test_single_category_length_taken_as_is():
    anchors = scale_anchors(96, 18)
    heads = heads_with_bias(anchors, [0.4])
    lengths, _, _ = length_candidates(np.zeros((2, 4)), anchors, heads)
    soft = np.ones((2, 1))
    sel, route, chosen = route_lengths(lengths, soft, np.ones((2, 1)), mode="train")
    assert np.array_equal(sel, lengths) and np.array_equal(route, soft)
    assert np.array_equal(chosen, [0, 0])


def test_straight_through_gradient_matches_soft_path_fd():
    """Frozen noise: the analytic ST gradient w.r.t. the category projection
    equals finite differences of the soft-mixed objective."""
    rng = np.random.default_rng(5)
    anchors = scale_anchors(96, 60)
    h_val = rng.normal(size=(1, 4))
    w_val = rng.normal(size=(4, 3))
    noise = rng.gumbel(size=(1, 3))
    head_biases = [0.4, -0.3, 0.8]
    heads = [(Tensor(w), Tensor(b)) for w, b in heads_with_bias(anchors, head_biases)]

    w = Tensor(w_val, requires_grad=True)
    with Tape() as tape:
        soft, hard = ops.gumbel_softmax_select(ops.matmul(Tensor(h_val), w), tau=1.0, noise=noise)
        lengths = ops.length_candidates(Tensor(np.zeros((1, 4))), anchors, heads)
        routed = ops.straight_through(soft, hard)
        loss = ops.tsum(ops.mul(lengths, routed))
        tape.backward(loss)
    analytic = w.grad.copy()

    def soft_objective(wv):
        scores = (h_val @ wv + noise) / 1.0
        e = np.exp(scores - scores.max())
        soft_np = e / e.sum()
        lens = np.array(
            [lo + (hi - lo) / (1 + math.exp(-b)) for (lo, hi), b in zip(zip(anchors.mins, anchors.maxs), head_biases)]
        )
        return float((soft_np * lens).sum())

    fd = np.zeros_like(w_val)
    eps = 1e-6
    for i in range(w_val.shape[0]):
        for j in range(w_val.shape[1]):
            wp, wm = w_val.copy(), w_val.copy()
            wp[i, j] += eps
            wm[i, j] -= eps
            fd[i, j] = (soft_objective(wp) - soft_objective(wm)) / (2 * eps)
    denom = np.maximum(np.abs(fd), 1e-6)
    assert (np.abs(analytic - fd) / denom).max() < 1e-3


# -- rounding -------------------------------------------------------------------


@pytest.mark.parametrize(
    "l,q,P,expected",
    [(41.1, 1, 60, 41), (55.0, 50, 60, 11), (0.2, 1, 60, 1), (12.5, 1, 60, 13)],
)
def test_round_and_clip(l, q, P, expected):
    assert round_and_clip_rows(np.array([l]), np.array([q]), P)[0] == expected


def test_round_and_clip_finished_rows_get_zero():
    out = round_and_clip_rows(np.array([5.0, 5.0, 0.2]), np.array([61, 60, 61]), 60)
    assert out.tolist() == [0, 1, 0]


@settings(max_examples=200, deadline=None)
@given(
    l=st.lists(st.floats(-5.0, 1000.0, allow_nan=False), min_size=1, max_size=8),
    q=st.lists(st.integers(1, 61), min_size=8, max_size=8),
)
def test_rounded_length_always_in_bounds(l, q):
    P = 60
    cursor = np.array(q[: len(l)])
    out = round_and_clip_rows(np.array(l), cursor, P)
    active = cursor <= P
    assert np.all((1 <= out[active]) & (out[active] <= P - cursor[active] + 1))
    assert np.all(out[~active] == 0)
