"""Gradient checks for the autograd engine (finite differences)."""

import threading

import numpy as np
import pytest

from repro.errors import AutogradError, ShapeError
from repro.nn.tensor import Tensor, concat, no_grad


def numerical_gradient(fn, value: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued ``fn``."""
    grad = np.zeros_like(value, dtype=np.float64)
    flat = value.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = fn(value)
        flat[index] = original - epsilon
        lower = fn(value)
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2.0 * epsilon)
    return grad


def check_gradient(build, value: np.ndarray, atol: float = 1e-5) -> None:
    """Compare autograd's gradient with finite differences.

    Args:
        build: maps a :class:`Tensor` to a scalar :class:`Tensor`.
        value: the input point.
    """
    tensor = Tensor(value.copy(), requires_grad=True)
    output = build(tensor)
    output.backward()
    expected = numerical_gradient(lambda v: float(build(Tensor(v)).data), value.copy())
    np.testing.assert_allclose(tensor.grad, expected, atol=atol)


class TestElementwiseGradients:
    def test_add(self, rng):
        check_gradient(lambda t: (t + 3.0).sum(), rng.normal(size=(3, 4)))

    def test_add_broadcast(self, rng):
        other = Tensor(rng.normal(size=(4,)))
        check_gradient(lambda t: (t + other).sum(), rng.normal(size=(3, 4)))

    def test_broadcast_gradient_shape(self, rng):
        left = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        right = Tensor(rng.normal(size=(4,)), requires_grad=True)
        (left * right).sum().backward()
        assert left.grad.shape == (3, 4)
        assert right.grad.shape == (4,)

    def test_mul(self, rng):
        other = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda t: (t * other).sum(), rng.normal(size=(3, 4)))

    def test_sub_and_neg(self, rng):
        check_gradient(lambda t: (1.0 - t).sum(), rng.normal(size=(5,)))

    def test_div(self, rng):
        denominator = Tensor(rng.uniform(1.0, 2.0, size=(3,)))
        check_gradient(lambda t: (t / denominator).sum(), rng.normal(size=(3,)))

    def test_div_denominator_gradient(self, rng):
        value = rng.uniform(1.0, 2.0, size=(3,))
        check_gradient(lambda t: (Tensor(np.ones(3)) / t).sum(), value)

    def test_pow(self, rng):
        check_gradient(lambda t: (t**3).sum(), rng.uniform(0.5, 1.5, size=(4,)))

    def test_exp(self, rng):
        check_gradient(lambda t: t.exp().sum(), rng.normal(size=(4,)))

    def test_log(self, rng):
        check_gradient(lambda t: t.log().sum(), rng.uniform(0.5, 2.0, size=(4,)))

    def test_relu(self, rng):
        value = rng.normal(size=(10,))
        value[np.abs(value) < 0.05] = 0.5  # keep away from the kink
        check_gradient(lambda t: t.relu().sum(), value)

    def test_leaky_relu(self, rng):
        value = rng.normal(size=(10,))
        value[np.abs(value) < 0.05] = 0.5
        check_gradient(lambda t: t.leaky_relu(0.2).sum(), value)

    def test_sigmoid(self, rng):
        check_gradient(lambda t: t.sigmoid().sum(), rng.normal(size=(6,)))

    def test_tanh(self, rng):
        check_gradient(lambda t: t.tanh().sum(), rng.normal(size=(6,)))

    def test_clamp(self, rng):
        value = rng.uniform(-2.0, 2.0, size=(20,))
        value[np.abs(value - 1.0) < 0.05] = 0.0  # away from the clip point
        value[np.abs(value) < 0.05] = 0.5
        check_gradient(lambda t: t.clamp(0.0, 1.0).sum(), value)


class TestShapedGradients:
    def test_matmul(self, rng):
        other = Tensor(rng.normal(size=(4, 2)))
        check_gradient(lambda t: (t @ other).sum(), rng.normal(size=(3, 4)))

    def test_matmul_right_operand(self, rng):
        left = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda t: (left @ t).sum(), rng.normal(size=(4, 2)))

    def test_matmul_requires_2d(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones(3)) @ Tensor(np.ones(3))

    def test_transpose(self, rng):
        other = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda t: (t.T * other).sum(), rng.normal(size=(4, 3)))

    def test_reshape(self, rng):
        check_gradient(lambda t: (t.reshape(6) ** 2).sum(), rng.normal(size=(2, 3)))

    def test_sum_axis(self, rng):
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), rng.normal(size=(3, 4)))

    def test_sum_keepdims(self, rng):
        check_gradient(
            lambda t: (t.sum(axis=1, keepdims=True) * t).sum(), rng.normal(size=(3, 4))
        )

    def test_mean(self, rng):
        check_gradient(lambda t: (t.mean() * 3.0), rng.normal(size=(4, 2)))

    def test_gather_rows(self, rng):
        indices = np.array([0, 2, 2, 1])
        check_gradient(
            lambda t: (t.gather_rows(indices) ** 2).sum(), rng.normal(size=(3, 4))
        )

    def test_concat(self, rng):
        other = Tensor(rng.normal(size=(2, 3)))
        check_gradient(
            lambda t: (concat([t, other], axis=0) ** 2).sum(), rng.normal(size=(2, 3))
        )

    def test_concat_axis1(self, rng):
        other = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        tensor = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        concat([tensor, other], axis=1).sum().backward()
        assert tensor.grad.shape == (2, 3)
        assert other.grad.shape == (2, 2)


class TestGraphMachinery:
    def test_backward_requires_grad(self):
        with pytest.raises(AutogradError):
            Tensor(np.ones(3)).backward()

    def test_backward_requires_scalar(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(AutogradError):
            (tensor * 2).backward()

    def test_backward_explicit_gradient(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        (tensor * 2).backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(tensor.grad, [2.0, 4.0, 6.0])

    def test_backward_gradient_shape_checked(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            (tensor * 2).backward(np.ones(4))

    def test_gradient_accumulates_across_backwards(self):
        tensor = Tensor(np.ones(2), requires_grad=True)
        (tensor * 2).sum().backward()
        (tensor * 2).sum().backward()
        np.testing.assert_allclose(tensor.grad, [4.0, 4.0])

    def test_zero_grad(self):
        tensor = Tensor(np.ones(2), requires_grad=True)
        (tensor * 2).sum().backward()
        tensor.zero_grad()
        assert tensor.grad is None

    def test_reused_tensor_accumulates(self, rng):
        check_gradient(lambda t: (t * t + t).sum(), rng.normal(size=(4,)))

    def test_diamond_graph(self, rng):
        def build(t):
            a = t * 2.0
            b = t + 1.0
            return (a * b).sum()

        check_gradient(build, rng.normal(size=(3,)))

    def test_no_grad_blocks_graph(self):
        tensor = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            result = tensor * 2
        assert not result.requires_grad

    def test_no_grad_restores_on_exception(self):
        tensor = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert (tensor * 2).requires_grad

    def test_no_grad_is_per_thread(self):
        """Interleaved enter/exit in two threads (A in, B in, A out, B out)."""

        def builds_graph() -> bool:
            return (Tensor(np.ones(2), requires_grad=True) * 2).requires_grad

        a_entered, b_entered, a_exited = (threading.Event() for _ in range(3))
        seen = {}

        def thread_a():
            with no_grad():
                a_entered.set()
                assert b_entered.wait(timeout=30)
                seen["a_inside"] = builds_graph()
            a_exited.set()
            seen["a_after"] = builds_graph()

        def thread_b():
            assert a_entered.wait(timeout=30)
            with no_grad():
                b_entered.set()
                assert a_exited.wait(timeout=30)
                seen["b_inside"] = builds_graph()
            seen["b_after"] = builds_graph()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert seen == {
            "a_inside": False,
            "a_after": True,
            "b_inside": False,
            "b_after": True,
        }
        assert builds_graph()

    def test_detach(self):
        tensor = Tensor(np.ones(2), requires_grad=True)
        assert not tensor.detach().requires_grad

    def test_item(self):
        assert Tensor(np.array([3.5])).item() == 3.5
        with pytest.raises(AutogradError):
            Tensor(np.ones(3)).item()

    def test_constant_result_has_no_tape(self):
        result = Tensor(np.ones(2)) + Tensor(np.ones(2))
        assert not result.requires_grad
        assert result._parents == ()


class TestReductionExtras:
    def test_max_gradient(self, rng):
        value = rng.normal(size=(3, 4))
        check_gradient(lambda t: t.max() * 2.0, value)

    def test_max_axis_gradient(self, rng):
        value = rng.normal(size=(3, 4))
        check_gradient(lambda t: (t.max(axis=1) ** 2).sum(), value)

    def test_max_ties_split_gradient(self):
        tensor = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
        tensor.max().backward()
        np.testing.assert_allclose(tensor.grad, [0.5, 0.5, 0.0])

    def test_min_matches_numpy(self, rng):
        value = rng.normal(size=(4, 3))
        assert Tensor(value).min().item() == pytest.approx(value.min())
        check_gradient(lambda t: t.min() * 3.0, value)

    def test_abs_gradient(self, rng):
        value = rng.normal(size=(8,))
        value[np.abs(value) < 0.05] = 0.5
        check_gradient(lambda t: t.abs().sum(), value)

    def test_sqrt_gradient(self, rng):
        value = rng.uniform(0.5, 4.0, size=(6,))
        check_gradient(lambda t: t.sqrt().sum(), value)

    def test_sqrt_rejects_negative(self):
        with pytest.raises(AutogradError):
            Tensor(np.array([-1.0])).sqrt()
