import gc
import math

import numpy as np
import pytest

import leapts.autodiff as ad
from leapts.autodiff import Tape, Tensor, huber_loss
from leapts.errors import NumericError, ShapeError, TapeError


def grad_of(build, *leaf_arrays, seed=0):
    """Run build(*leaves) under a tape, backprop, return leaf grads."""
    leaves = [Tensor(a, requires_grad=True) for a in leaf_arrays]
    with Tape() as tape:
        loss = build(*leaves)
        tape.backward(loss)
    return [l.grad for l in leaves]


def fd_grad(f, arrays, h=1e-6):
    """Central finite differences of ``f()``, a closure reading from
    ``arrays``; entries are perturbed in place and restored."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gflat = a.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f()
            flat[i] = orig - h
            dn = f()
            flat[i] = orig
            gflat[i] = (up - dn) / (2 * h)
        grads.append(g)
    return grads


# -- hand examples -----------------------------------------------------------


def test_tanh_at_zero():
    (g,) = grad_of(lambda x: ad.tanh(x).sum(), np.zeros(1))
    assert ad.tanh(Tensor([0.0])).data[0] == 0.0
    assert g[0] == 1.0


def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor([0.0])).data[0] == 0.5
    assert ad.sigmoid(Tensor(0.0)).data == 0.5  # a 0-d input keeps its shape


def test_sigmoid_bits_match_the_two_branch_formula():
    """1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below, computed on the
    selected entries, is the reference the sigmoid must match bit for bit."""
    x = np.array([0.0, -0.0, 1e-3, -1e-3, 50.0, -50.0, 800.0, -800.0])
    ref = np.empty_like(x)
    pos = x >= 0
    ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ref[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
    assert np.array_equal(ad.sigmoid(Tensor(x)).data, ref)
    assert ref[1] == 0.5 and ref[6] == 1.0 and ref[7] == 0.0


def test_matmul_hand_product():
    out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_linear_map_gradient():
    w = Tensor([[2.0, -1.0]], requires_grad=True)
    with Tape() as tape:
        loss = ad.matmul(w, Tensor([[1.0], [1.0]])).sum()
        tape.backward(loss)
    assert np.array_equal(w.grad, [[1.0, 1.0]])


def test_detached_branch_zero_gradient():
    w = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        kept = ad.mul(w, 2.0)
        cut = ad.mul(kept.detach(), 5.0)
        loss = ad.add(kept, cut).sum()
        tape.backward(loss)
    assert np.array_equal(w.grad, [2.0])


def test_straight_through_exact_forward_identity_backward():
    soft = Tensor([[0.3, 0.6, 0.1]], requires_grad=True)
    hard = np.array([[0.0, 1.0, 0.0]])
    with Tape() as tape:
        st = ad.straight_through(soft, hard)
        assert np.array_equal(st.data, hard)
        loss = ad.mul(st, Tensor([[1.0, 2.0, 3.0]])).sum()
        tape.backward(loss)
    assert np.array_equal(soft.grad, [[1.0, 2.0, 3.0]])


# -- huber -------------------------------------------------------------------


def test_huber_zero_for_equal():
    x = np.arange(6.0).reshape(2, 3)
    assert huber_loss(Tensor(x), Tensor(x), delta=1.0).item() == 0.0


@pytest.mark.parametrize("r,delta,expected", [(2.0, 1.0, 1.5), (0.5, 1.0, 0.125)])
def test_huber_hand_values(r, delta, expected):
    got = huber_loss(Tensor([r]), Tensor([0.0]), delta=delta).item()
    assert got == pytest.approx(expected, abs=1e-12)


def test_huber_shape_mismatch():
    with pytest.raises(ShapeError):
        huber_loss(Tensor([1.0, 2.0]), Tensor([1.0]))


# -- gradient correctness of every primitive ---------------------------------


def test_primitive_gradients_match_finite_differences(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    m = rng.normal(size=(4, 2))
    bias = rng.normal(size=2)
    c = rng.normal(size=(3, 2))
    cases = [
        ("add", lambda x, y: ad.add(x, y).sum(), [a, b]),
        ("sub", lambda x, y: ad.tmean(ad.sub(x, y)), [a, b]),
        ("mul", lambda x, y: ad.mul(x, y).sum(), [a, b]),
        ("mul_broadcast", lambda x, y: ad.mul(x, y).sum(), [a, rng.normal(size=(3, 1))]),
        ("matmul", lambda x, y: ad.matmul(x, y).sum(), [a, m]),
        ("linear", lambda x, y, z: ad.mul(ad.linear(x, y, z), c).sum(), [a, m, bias]),
        ("linear_tanh", lambda x, y, z: ad.mul(ad.linear(x, y, z, "tanh"), c).sum(), [a, m, bias]),
        ("tanh", lambda x: ad.tanh(x).sum(), [a]),
        ("sigmoid", lambda x: ad.sigmoid(x).sum(), [a]),
        (
            "gated_sigmoid",
            lambda x: ad.mul(ad.gated_sigmoid(x, b, 1.7, (a > 0).astype(float)), c[:, :1]).sum(),
            [rng.normal(size=(3, 1))],
        ),
        ("softmax", lambda x: ad.mul(ad.softmax(x), b).sum(), [a]),
        ("concat", lambda x, y: ad.mul(ad.concat([x, y]), 1.5).sum(), [a, b]),
        ("slice", lambda x: x[1:, :2].sum(), [a]),
        (
            "rows_to",
            lambda x, y: ad.mul(ad.rows_to([(np.array([0, 2]), x), (np.array([3]), y)], 4, 4),
                                np.arange(16.0).reshape(4, 4)).sum(),
            [rng.normal(size=(2, 4)), rng.normal(size=(1, 4))],
        ),
        ("sum_axis", lambda x: ad.mul(x.sum(axis=1, keepdims=True), 2.0).sum(), [a]),
        ("mean_axis", lambda x: ad.mul(ad.tmean(x, axis=0), 3.0).sum(), [a]),
        ("abs", lambda x: ad.tabs(x).sum(), [a + 0.3]),
        ("clip", lambda x: ad.tclip(x, -0.5, 0.7).sum(), [a]),
        (
            "rowwise_matvec",
            lambda x, y: ad.rowwise_matvec(x, y).sum(),
            [rng.normal(size=(3, 8)), rng.normal(size=(3, 2))],
        ),
        ("huber", lambda x, y: huber_loss(x, y, delta=0.8), [a, b]),
    ]
    for name, build, arrays in cases:
        analytic = grad_of(build, *arrays)
        probe = [x.copy() for x in arrays]
        numeric = fd_grad(lambda _b=build, _p=probe: _b(*[Tensor(x) for x in _p]).item(), probe)
        for ga, gn in zip(analytic, numeric):
            err = np.abs(ga - gn).max()
            assert err < 1e-6, f"{name}: max abs grad error {err}"


@pytest.mark.parametrize("act", [None, "tanh"])
def test_linear_matches_the_composition_bit_for_bit(rng, act):
    """One linear node gives the forward values and gradients of
    add(matmul) (+ tanh), also when its input has a second consumer."""
    arrays = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
    weight = rng.normal(size=(5, 3))

    def run(layer):
        x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
        with Tape() as tape:
            y = layer(x, w, b)
            loss = ad.add(ad.mul(y, weight).sum(), ad.tsum(ad.mul(x, x)))
            tape.backward(loss)
        return y.data, x.grad, w.grad, b.grad

    def chain(x, w, b):
        y = ad.add(ad.matmul(x, w), b)
        return y if act is None else ad.tanh(y)

    fused = run(lambda x, w, b: ad.linear(x, w, b, act))
    for got, want in zip(fused, run(chain)):
        assert np.array_equal(got, want)


def test_softmax_rows_sum_to_one(rng):
    y = ad.softmax(Tensor(rng.normal(size=(5, 3)))).data
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12)


# -- tape discipline ----------------------------------------------------------


def test_tape_single_use():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.mul(x, x).sum()
    tape.backward(loss)
    with pytest.raises(TapeError):
        tape.backward(loss)


def test_backward_requires_scalar_and_matching_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        vec = ad.mul(x, 2.0)
    with pytest.raises(TapeError):
        tape.backward(vec)
    with Tape() as other:
        loss = ad.mul(x, x).sum()
    with pytest.raises(TapeError):
        Tape().backward(loss)


def test_graph_is_freed_without_the_cycle_collector(toy_model, rng):
    """The tape alone owns the recorded graph: dropping the tape and the
    loss frees every node by reference counting."""
    from leapts.forward import forward_loss

    x, y = rng.normal(size=(4, 24, 2)), rng.normal(size=(4, 8, 2))
    gc.collect()
    gc.disable()
    try:
        with Tape() as tape:
            loss, out = forward_loss(toy_model, x, y, mode="train", rng=rng)
            tape.backward(loss)
        assert len(tape.nodes) > 100
        del tape, loss, out
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_nested_tapes_rejected():
    with Tape():
        with pytest.raises(TapeError):
            with Tape():
                pass


def test_shape_errors_name_op_and_shapes():
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="add"):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


def test_nonfinite_forward_raises():
    big = Tensor([1e308])
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="mul"):
            ad.mul(big, big)


def test_nonfinite_leaf_through_concat_raises_at_the_next_arithmetic_op():
    """Copying ops scan nothing; the first op that computes on the value
    names itself."""
    joined = ad.concat([Tensor([[np.nan]]), Tensor([[1.0]])])
    with pytest.raises(NumericError, match="^add: non-finite values in result$"):
        ad.add(joined, 1.0)


def test_rows_to_puts_parts_back_and_passes_a_full_part_through():
    x, y = Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0]])
    out = ad.rows_to([(np.array([0, 3]), x), (np.array([1]), y)], 4, 2)
    assert np.array_equal(out.data, [[1.0, 2.0], [5.0, 6.0], [0.0, 0.0], [3.0, 4.0]])
    assert ad.rows_to([(np.arange(2), x)], 2, 2) is x
    assert np.array_equal(ad.rows_to([], 2, 3).data, np.zeros((2, 3)))


def test_linear_tanh_overflow_raises():
    """tanh would saturate an overflowing pre-activation to a finite value;
    the layer scans before it."""
    x, w = Tensor([[1e308, 1e308]]), Tensor([[1.0], [1.0]])
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="linear"):
            ad.linear(x, w, Tensor([0.0]), "tanh")


def test_gated_sigmoid_overflow_raises():
    """The sigmoid would saturate an overflowing pre-activation to 0 or 1;
    the primitive scans before it."""
    sel = Tensor([[1e308]])
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="gated_sigmoid"):
            ad.gated_sigmoid(sel, np.zeros((1, 2)), 10.0, np.ones((1, 2)))


def test_gradients_accumulate_across_reuse():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.add(ad.mul(x, 3.0), ad.mul(x, x)).sum()
        tape.backward(loss)
    assert x.grad[0] == pytest.approx(3.0 + 4.0)


def test_concurrent_tapes_on_separate_threads(rng):
    """Tapes are thread-confined; independent passes may run concurrently."""
    import threading

    a = rng.normal(size=(8, 8))
    results = {}

    def worker(key, scale):
        x = Tensor(scale * a, requires_grad=True)
        with Tape() as tape:
            loss = huber_loss(ad.tanh(x), Tensor(np.zeros((8, 8))))
            tape.backward(loss)
        results[key] = (loss.item(), x.grad.copy())

    threads = [threading.Thread(target=worker, args=(i, 1.0 + i)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i in range(4):
        x = Tensor((1.0 + i) * a, requires_grad=True)
        with Tape() as tape:
            loss = huber_loss(ad.tanh(x), Tensor(np.zeros((8, 8))))
            tape.backward(loss)
        assert results[i][0] == loss.item()
        assert np.array_equal(results[i][1], x.grad)


def test_forward_determinism(rng):
    a = rng.normal(size=(6, 6))
    b = rng.normal(size=(6, 6))

    def run():
        x = Tensor(a, requires_grad=True)
        with Tape() as tape:
            loss = huber_loss(ad.tanh(ad.matmul(x, Tensor(b))), Tensor(np.ones((6, 6))))
            tape.backward(loss)
        return loss.item(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)
