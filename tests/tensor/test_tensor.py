"""Tests for the Tensor core: construction, tape, backward mechanics."""

import numpy as np
import pytest

from repro.tensor import Tensor, is_grad_enabled, no_grad


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.data.dtype == np.float64

    def test_from_int_array_casts_to_float64(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.data.dtype == np.float64

    def test_scalar(self):
        t = Tensor(2.5)
        assert t.item() == pytest.approx(2.5)

    def test_zeros_ones(self):
        assert np.all(Tensor.zeros(2, 3).data == 0.0)
        assert np.all(Tensor.ones(4).data == 1.0)
        assert Tensor.zeros(2, 3, requires_grad=True).requires_grad

    def test_shape_properties(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24
        assert len(t) == 2

    def test_detach_cuts_tape(self):
        a = Tensor([1.0], requires_grad=True)
        b = (a * 2.0).detach()
        assert not b.requires_grad
        assert b._parents == ()

    def test_copy_is_deep(self):
        a = Tensor([1.0, 2.0])
        b = a.copy()
        b.data[0] = 99.0
        assert a.data[0] == 1.0


class TestBackward:
    def test_scalar_backward_default_grad(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        (a * a).sum().backward()
        assert np.allclose(a.grad, [4.0, 6.0])

    def test_backward_requires_scalar_without_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="scalar"):
            (a * 2.0).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        a = Tensor([1.0])
        with pytest.raises(RuntimeError):
            a.backward()

    def test_explicit_upstream_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = a * 3.0
        b.backward(np.array([1.0, 10.0]))
        assert np.allclose(a.grad, [3.0, 30.0])

    def test_gradient_accumulates_across_uses(self):
        a = Tensor([2.0], requires_grad=True)
        # a appears twice in the expression: grads must add.
        (a * a + a).sum().backward()
        assert np.allclose(a.grad, [5.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_diamond_graph_gradient(self):
        # x feeds two paths that rejoin: d(x*x + 3x)/dx = 2x + 3.
        x = Tensor([4.0], requires_grad=True)
        left = x * x
        right = x * 3.0
        (left + right).sum().backward()
        assert np.allclose(x.grad, [11.0])

    def test_deep_chain_does_not_recurse(self):
        # 5000-deep chain would overflow recursive DFS.
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 1.0
        y.sum().backward()
        assert np.allclose(x.grad, [1.0])

    def test_constant_parents_get_no_grad(self):
        a = Tensor([1.0], requires_grad=True)
        c = Tensor([5.0])
        (a * c).sum().backward()
        assert c.grad is None

    def test_tape_is_freed_without_the_cycle_collector(self):
        # A batched minibatch keeps every member's tape alive until its
        # one backward; those tapes must be freed by reference counting,
        # not left as reference cycles for the cyclic collector.
        import gc

        from repro.tensor import ops

        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        gc.collect()
        gc.disable()
        try:
            loss = ops.tanh(a * 2.0 + 1.0).sum()
            loss.backward()
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert a.grad is not None


class TestNoGrad:
    def test_no_grad_disables_tape(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = a * 2.0
        assert not b.requires_grad
        assert b._backward is None

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_nested(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restored_after_exception(self):
        try:
            with no_grad():
                raise ValueError("boom")
        except ValueError:
            pass
        assert is_grad_enabled()
