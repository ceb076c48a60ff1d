"""The flat-buffer Adam: bit-identical to the per-tensor update it replaced,
refuses missing gradients and gradients that do not match their
parameters, and leaves every parameter a view into one buffer."""

import numpy as np
import pytest

from fmash import nn
from fmash.mlfie import VaeParams
from fmash.refine import AutoencoderParams, reconstruction_mse, train_autoencoder
from fmash.tape import Tensor, no_grad
from gradcheck import as_float64, max_relative_error


class PerTensorAdam:
    """The per-tensor update ``nn.Adam`` replaced, kept as the bit-exact
    reference: eleven array operations per tensor, each making a new array."""

    b1, b2, eps = nn.Adam.b1, nn.Adam.b2, nn.Adam.eps

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        with no_grad():
            for i, p in enumerate(self.params):
                g = p.grad
                self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g
                self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * g * g
                m_hat = self.m[i] / (1 - self.b1 ** self.t)
                v_hat = self.v[i] / (1 - self.b2 ** self.t)
                p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _twins(module):
    """The module's parameters and an independent copy of each."""
    params = module.parameters()
    return params, [Tensor(p.data.copy(), requires_grad=True) for p in params]


def _random_grads(params, rng):
    """Gradients over many magnitudes, with exact zeros, in each parameter's
    dtype."""
    grads = []
    for p in params:
        g = rng.normal(size=p.data.shape) * 10.0 ** rng.integers(-6, 3, size=p.data.shape)
        g[rng.random(p.data.shape) < 0.1] = 0.0
        grads.append(g.astype(p.data.dtype))
    return grads


def _assert_same_state(opt, ref, step):
    assert opt.t == ref.t
    for i, (p, q) in enumerate(zip(opt.params, ref.params)):
        for what, a, b in (("data", p.data, q.data), ("m", opt.m[i], ref.m[i]),
                           ("v", opt.v[i], ref.v[i])):
            assert a.dtype == b.dtype and np.array_equal(a, b), \
                f"step {step}: {what} of parameter {i} differs"


def _run_both(params, twins, grads_at, lr=1e-2, steps=5):
    """``steps`` steps of the flat optimizer and the reference from the same
    state, each handed the same gradient arrays; the state must match bit
    for bit after every step, and no gradient may be written."""
    opt, ref = nn.Adam(params, lr=lr), PerTensorAdam(twins, lr=lr)
    for step in range(1, steps + 1):
        grads = grads_at(step)
        before = [g.copy() for g in grads]
        for p, q, g in zip(params, twins, grads):
            p.grad = q.grad = g
        opt.step()
        ref.step()
        _assert_same_state(opt, ref, step)
        assert all(np.array_equal(g, g0) for g, g0 in zip(grads, before))
    return opt, ref


def test_matches_per_tensor_adam_on_a_float32_vae():
    params, twins = _twins(VaeParams(23, 32, 16, nn.stage_rng(3, "mlfie.vae")))
    assert len(params) == 14
    rng = np.random.default_rng(0)
    _run_both(params, twins, lambda _: _random_grads(params, rng))


def test_matches_per_tensor_adam_in_float64():
    module = as_float64(AutoencoderParams(19, nn.stage_rng(4, "refine.ae")))
    params, twins = _twins(module)
    assert {p.data.dtype for p in params} == {np.dtype(np.float64)}
    rng = np.random.default_rng(1)
    _run_both(params, twins, lambda _: _random_grads(params, rng), lr=3e-3)


def test_matches_per_tensor_adam_on_broadcast_and_shared_gradients():
    rng = np.random.default_rng(2)
    shapes = [(4, 5), (4, 5), (5,), (3, 1), (), (2, 3)]
    params = [nn.parameter(rng.normal(size=s)) for s in shapes]
    twins = [Tensor(p.data.copy(), requires_grad=True) for p in params]

    def grads_at(_):
        # a ``+`` hands one array to both parents; a ``sum`` hands down a
        # read-only broadcast view; a ``transpose`` a strided one
        shared = rng.normal(size=(4, 5)).astype(np.float32)
        row = np.broadcast_to(np.float32(rng.normal()), (5,))
        column = np.broadcast_to(rng.normal(size=(1, 1)).astype(np.float32), (3, 1))
        scalar = np.broadcast_to(np.float32(rng.normal()), ())
        strided = rng.normal(size=(3, 2)).astype(np.float32).T
        assert not row.flags.writeable and not strided.flags.c_contiguous
        return [shared, shared, row, column, scalar, strided]

    _run_both(params, twins, grads_at)


def test_a_parameter_without_a_gradient_is_refused_naming_it():
    params, twins = _twins(AutoencoderParams(11, nn.stage_rng(5, "refine.ae"), hidden=None))
    rng = np.random.default_rng(3)
    # two steps first, so that the moments are nonzero
    opt, _ = _run_both(params, twins, lambda _: _random_grads(params, rng), steps=2)
    before = [(p.data.copy(), m.copy(), v.copy()) for p, m, v in zip(params, opt.m, opt.v)]
    for p, g in zip(params, _random_grads(params, rng)):
        p.grad = g
    params[1].grad = None
    with pytest.raises(ValueError, match=r"parameter 1 has no gradient"):
        opt.step()
    # a refused step changes nothing
    assert opt.t == 2
    for (data, m, v), p, m_i, v_i in zip(before, params, opt.m, opt.v):
        assert np.array_equal(p.data, data) and m.any()
        assert np.array_equal(m_i, m) and np.array_equal(v_i, v)


def test_a_second_optimizer_over_the_first_ones_views_matches():
    """Training continued with ``params=``: the second fit's parameters are
    still views into the first fit's buffer when it copies them."""
    params, twins = _twins(VaeParams(9, 8, 4, nn.stage_rng(6, "mlfie.vae")))
    rng = np.random.default_rng(4)
    _run_both(params, twins, lambda _: _random_grads(params, rng))
    first_buffer = params[0].data.base
    _run_both(params, twins, lambda _: _random_grads(params, rng))
    assert all(p.data.base is not first_buffer for p in params)


def test_mismatched_gradients_are_refused_naming_the_parameter():
    params = [nn.parameter(np.ones(3)), nn.parameter(np.ones((2, 2)))]
    opt = nn.Adam(params, lr=0.1)
    params[1].grad = np.ones((2, 2), dtype=np.float32)

    params[0].grad = np.ones(3, dtype=np.float64)
    with pytest.raises(TypeError, match=r"parameter 0 is float32 \(3,\).*float64 \(3,\)"):
        opt.step()
    params[0].grad = np.ones((2, 3), dtype=np.float32)
    with pytest.raises(ValueError, match=r"parameter 0 is float32 \(3,\).*float32 \(2, 3\)"):
        opt.step()
    # a refused step changes nothing
    assert opt.t == 0
    assert params[0].data.dtype == np.float32 and params[0].data.shape == (3,)
    assert np.array_equal(params[0].data, np.ones(3)) and not opt.m[0].any()


def test_mixed_parameter_dtypes_are_refused_at_construction():
    params = [nn.parameter(np.ones(3)), Tensor(np.ones(2), requires_grad=True)]
    with pytest.raises(TypeError, match="float32.*float64"):
        nn.Adam(params)


def test_after_fit_parameters_are_disjoint_views_of_one_buffer():
    matrix = np.random.default_rng(7).normal(size=(12, 9)).astype(np.float32)
    module = AutoencoderParams(9, nn.stage_rng(7, "refine.ae"))
    params = module.parameters()
    losses = train_autoencoder(matrix, module, epochs=5)

    buffer = params[0].data.base
    assert buffer is not None
    for p in params:
        assert p.data.base is buffer and p.data.flags.c_contiguous
    # in parameter order, each segment ends where the next begins
    segments = [(p.data.ctypes.data, p.data.ctypes.data + p.data.nbytes) for p in params]
    assert all(end == start for (_, end), (start, _) in zip(segments, segments[1:]))

    state = module.state_dict()
    assert not any(np.shares_memory(arr, buffer) for arr in state.values())

    fresh = AutoencoderParams(9, nn.stage_rng(None, "refine.ae"))
    fresh.load_state_dict(state)
    again = train_autoencoder(matrix, fresh, epochs=5)
    assert again[0] == pytest.approx(reconstruction_mse(matrix, module), rel=1e-6)
    assert again[0] < losses[0]
    moved = fresh.state_dict()
    assert all(not np.array_equal(moved[name], state[name]) for name in state)
    assert all(p.data.base is fresh.parameters()[0].data.base for p in fresh.parameters())


def test_finite_differences_perturb_a_transposed_parameter_in_place():
    rng = np.random.default_rng(8)
    weight = Tensor(rng.normal(size=(3, 2)).T, requires_grad=True)
    assert weight.shape == (2, 3) and not weight.data.flags.c_contiguous
    x = Tensor(rng.normal(size=(4, 2)))

    def loss():
        y = (x @ weight).sigmoid()
        return (y * y).sum()

    assert max_relative_error(loss, [weight]) < 1e-4
