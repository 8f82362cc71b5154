"""Unit tests for functional ops: conv, pooling, batch norm, softmax heads."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Tensor, no_grad
from repro.nn import functional as F
from repro.nn.utils import check_gradient


def reference_conv2d(x, w, stride, padding):
    """Direct (slow) convolution used as ground truth for the im2col path."""
    n, ci, h, wdt = x.shape
    co, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wdt + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, co, oh, ow))
    for b in range(n):
        for o in range(co):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[b, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[b, o, i, j] = np.sum(patch * w[o])
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_reference(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
        assert np.allclose(out.data, reference_conv2d(x, w, stride, padding), atol=1e-10)

    def test_bias_added_per_channel(self, rng):
        x = rng.standard_normal((1, 1, 4, 4))
        w = np.zeros((2, 1, 1, 1))
        bias = np.array([1.5, -2.0])
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(bias))
        assert np.allclose(out.data[0, 0], 1.5)
        assert np.allclose(out.data[0, 1], -2.0)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(rng.standard_normal((1, 3, 5, 5))),
                     Tensor(rng.standard_normal((4, 2, 3, 3))))

    def test_gradient_wrt_input(self, rng):
        w = rng.standard_normal((2, 2, 3, 3))
        check_gradient(lambda t: F.conv2d(t, Tensor(w), stride=1, padding=1).sum(),
                       rng.standard_normal((1, 2, 5, 5)))

    def test_gradient_wrt_weight(self, rng):
        x = rng.standard_normal((2, 2, 5, 5))
        check_gradient(lambda t: F.conv2d(Tensor(x), t, stride=2, padding=1).sum(),
                       rng.standard_normal((3, 2, 3, 3)))

    def test_gradient_wrt_bias(self, rng):
        x = rng.standard_normal((2, 2, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3))
        check_gradient(lambda t: F.conv2d(Tensor(x), Tensor(w), t, padding=1).sum(),
                       rng.standard_normal((3,)))

    def test_output_size_formula(self):
        assert F.conv_output_size(32, 3, 1, 1) == 32
        assert F.conv_output_size(32, 3, 2, 1) == 16
        assert F.conv_output_size(224, 7, 2, 3) == 112


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2)
        assert np.allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_avg_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2)
        assert np.allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_gradient(self, rng):
        check_gradient(lambda t: F.max_pool2d(t, 2).sum(), rng.standard_normal((2, 2, 6, 6)))

    def test_avg_pool_gradient(self, rng):
        check_gradient(lambda t: F.avg_pool2d(t, 2).sum(), rng.standard_normal((2, 2, 6, 6)))

    def test_strided_max_pool_shape(self, rng):
        out = F.max_pool2d(Tensor(rng.standard_normal((1, 1, 7, 7))), 3, stride=2)
        assert out.shape == (1, 1, 3, 3)

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        out = F.global_avg_pool2d(Tensor(x))
        assert out.shape == (2, 3)
        assert np.allclose(out.data, x.mean(axis=(2, 3)))


class TestDenseAndNorm:
    def test_linear_matches_numpy(self, rng):
        x = rng.standard_normal((4, 5))
        w = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        out = F.linear(Tensor(x), Tensor(w), Tensor(b))
        assert np.allclose(out.data, x @ w.T + b)

    def test_batch_norm_normalizes_training(self, rng):
        x = rng.standard_normal((8, 3, 4, 4)) * 5 + 2
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        running_mean = np.zeros(3)
        running_var = np.ones(3)
        out = F.batch_norm(Tensor(x), gamma, beta, running_mean, running_var, training=True)
        assert np.allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        assert np.allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_batch_norm_updates_running_stats(self, rng):
        x = rng.standard_normal((8, 3, 4, 4)) + 4.0
        running_mean = np.zeros(3)
        running_var = np.ones(3)
        F.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                     running_mean, running_var, training=True, momentum=1.0)
        assert np.allclose(running_mean, x.mean(axis=(0, 2, 3)), atol=1e-7)

    def test_batch_norm_eval_uses_running_stats(self, rng):
        x = rng.standard_normal((4, 2, 3, 3))
        running_mean = np.array([1.0, -1.0])
        running_var = np.array([4.0, 0.25])
        out = F.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                           running_mean, running_var, training=False)
        expected = (x - running_mean.reshape(1, 2, 1, 1)) / np.sqrt(
            running_var.reshape(1, 2, 1, 1) + 1e-5)
        assert np.allclose(out.data, expected)

    def test_batch_norm_2d_input(self, rng):
        x = rng.standard_normal((16, 5))
        out = F.batch_norm(Tensor(x), Tensor(np.ones(5)), Tensor(np.zeros(5)),
                           np.zeros(5), np.ones(5), training=True)
        assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-8)

    def test_batch_norm_rejects_3d(self, rng):
        with pytest.raises(ValueError):
            F.batch_norm(Tensor(rng.standard_normal((2, 3, 4))), Tensor(np.ones(3)),
                         Tensor(np.zeros(3)), np.zeros(3), np.ones(3), training=True)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(8, 16, 5, 5), (6, 7)])
    def test_batch_norm_train_keeps_composed_bytes(self, dtype, shape):
        """The fused ``batch_norm_train`` op writes the output and running
        statistics of the composed tape formula kept below, byte for byte,
        and its analytic gradients agree with the composed tape's."""
        def composed(x, gamma, beta, running_mean, running_var,
                     momentum=0.1, eps=1e-5):
            axes = (0,) + tuple(range(2, x.ndim))
            view = (1, -1) + (1,) * (x.ndim - 2)
            mean = x.mean(axis=axes, keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=axes, keepdims=True)
            running_mean *= (1.0 - momentum)
            running_mean += momentum * mean.data.reshape(-1)
            running_var *= (1.0 - momentum)
            running_var += momentum * var.data.reshape(-1)
            x_hat = (x - mean) / (var + eps) ** 0.5
            return x_hat * gamma.reshape(view) + beta.reshape(view)

        rng = np.random.default_rng(11)
        c = shape[1]
        x = (rng.standard_normal(shape) * 3.0 + 1.0).astype(dtype)
        arrays = [x, rng.standard_normal(c).astype(dtype),
                  rng.standard_normal(c).astype(dtype)]
        stats = [rng.standard_normal(c).astype(dtype),
                 (rng.random(c) + 0.5).astype(dtype)]
        grad = rng.standard_normal(shape).astype(dtype)
        runs = []
        for fn in (composed, F.batch_norm):
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            running = [a.copy() for a in stats]
            kwargs = {"training": True} if fn is F.batch_norm else {}
            out = fn(*tensors, *running, **kwargs)
            out.backward(grad)
            runs.append((out.data, running, [t.grad for t in tensors]))
        (ref, ref_stats, ref_grads), (got, got_stats, got_grads) = runs
        assert got.dtype == dtype and got.tobytes() == ref.tobytes()
        for a, b in zip(got_stats, ref_stats):
            assert a.tobytes() == b.tobytes()
        tol = 1e-5 if dtype == np.float32 else 1e-13
        for a, b in zip(got_grads, ref_grads):
            assert a.dtype == dtype and a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=0,
                                       atol=tol * np.abs(b).max())

    def test_batch_norm_train_is_one_tape_node(self, rng):
        x = Tensor(rng.standard_normal((4, 3, 2, 2)), requires_grad=True)
        out = F.batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)),
                           np.zeros(3), np.ones(3), training=True)
        assert out._node.op.name == "batch_norm_train"
        assert out._node.inputs[0] is x

    def test_dropout_identity_in_eval(self, rng):
        x = rng.standard_normal((4, 4))
        out = F.dropout(Tensor(x), p=0.5, training=False)
        assert np.array_equal(out.data, x)

    def test_dropout_scales_surviving_activations(self, rng):
        x = np.ones((1000,))
        out = F.dropout(Tensor(x), p=0.4, training=True, rng=np.random.default_rng(0))
        surviving = out.data[out.data > 0]
        assert np.allclose(surviving, 1.0 / 0.6)


class TestSoftmaxHeads:
    def test_softmax_sums_to_one(self, rng):
        out = F.softmax(Tensor(rng.standard_normal((5, 7))), axis=1)
        assert np.allclose(out.data.sum(axis=1), 1.0)

    def test_log_softmax_consistent_with_softmax(self, rng):
        x = Tensor(rng.standard_normal((4, 6)))
        assert np.allclose(F.log_softmax(x, axis=1).data, np.log(F.softmax(x, axis=1).data))

    def test_softmax_shift_invariance(self, rng):
        x = rng.standard_normal((3, 5))
        a = F.softmax(Tensor(x), axis=1).data
        b = F.softmax(Tensor(x + 100.0), axis=1).data
        assert np.allclose(a, b, atol=1e-9)

    def test_log_softmax_gradient(self, rng):
        check_gradient(lambda t: F.log_softmax(t, axis=1)[np.arange(3), [0, 1, 2]].sum(),
                       rng.standard_normal((3, 4)))

    def test_get_activation_lookup(self):
        assert F.get_activation("relu") is F.relu
        assert F.get_activation(None) is F.identity
        assert F.get_activation("NONE") is F.identity
        with pytest.raises(KeyError):
            F.get_activation("swish")


# --------------------------------------------------------------------------- #
# Property-based: im2col / col2im round trips and conv shape algebra
# --------------------------------------------------------------------------- #
@given(
    h=st.integers(3, 10), w=st.integers(3, 10),
    k=st.integers(1, 3), stride=st.integers(1, 2), padding=st.integers(0, 2),
)
@settings(max_examples=40, deadline=None)
def test_conv_output_shape_property(h, w, k, stride, padding):
    if h + 2 * padding < k or w + 2 * padding < k:
        return
    x = np.zeros((1, 1, h, w))
    wgt = np.zeros((1, 1, k, k))
    out = F.conv2d(Tensor(x), Tensor(wgt), stride=stride, padding=padding)
    assert out.shape[2] == F.conv_output_size(h, k, stride, padding)
    assert out.shape[3] == F.conv_output_size(w, k, stride, padding)


@given(st.integers(2, 6), st.integers(2, 6))
@settings(max_examples=20, deadline=None)
def test_im2col_col2im_adjoint(kh_extent, seed):
    """col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 2, kh_extent + 3, kh_extent + 3))
    kernel, stride, padding = (3, 3), (1, 1), (1, 1)
    cols, out_hw = F.im2col(x, kernel, stride, padding)
    y = rng.standard_normal(cols.shape)
    lhs = float(np.sum(cols * y))
    rhs = float(np.sum(x * F.col2im(y, x.shape, kernel, stride, padding, out_hw)))
    assert lhs == pytest.approx(rhs, rel=1e-9)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(8))
def test_im2col_out_matches_im2col_and_col2im_is_its_adjoint(dtype, seed):
    """The arena gather (compiled plans) and the eager lowering share one
    window helper: same bytes for any geometry, and col2im is the adjoint."""
    rng = np.random.default_rng(seed)
    n, c, kh, kw = (int(v) for v in rng.integers(1, 4, size=4))
    stride = tuple(int(v) for v in rng.integers(1, 3, size=2))
    padding = tuple(int(v) for v in rng.integers(0, 3, size=2))
    h, w = kh + int(rng.integers(0, 6)), kw + int(rng.integers(0, 6))
    x = rng.standard_normal((n, c, h, w)).astype(dtype)

    cols, out_hw = F.im2col(x, (kh, kw), stride, padding)
    out = np.full(cols.shape, np.nan, dtype=dtype)
    got, got_hw = F.im2col_out(x, (kh, kw), stride, padding, out=out)
    assert got is out and tuple(got_hw) == out_hw
    assert cols.dtype == out.dtype == dtype
    assert out.tobytes() == cols.tobytes()

    y = rng.standard_normal(cols.shape).astype(dtype)
    back = F.col2im(y, x.shape, (kh, kw), stride, padding, out_hw)
    assert back.shape == x.shape
    lhs = float(np.sum(cols.astype(np.float64) * y))
    rhs = float(np.sum(x.astype(np.float64) * back))
    tol = 1e-4 if dtype == np.float32 else 1e-10
    assert lhs == pytest.approx(rhs, rel=tol, abs=tol)


# --------------------------------------------------------------------------- #
# Shifted-GEMM convolution (inference without im2col)
# --------------------------------------------------------------------------- #
#: (batch, ci, co, kernel, padding, (h, w)): ALF code-conv and dense widths,
#: 3x3 and 5x5 kernels, padding 0 and 1, ragged output widths 7 and 15, a
#: one-filter conv and batches 1, 3 and 16.
SHIFTED_SHAPES = [
    (1, 16, 7, 3, 1, (32, 32)),
    (16, 16, 7, 3, 1, (12, 12)),
    (3, 32, 13, 3, 1, (16, 16)),
    (16, 64, 18, 3, 1, (8, 8)),
    (3, 16, 16, 3, 0, (17, 17)),
    (1, 24, 24, 5, 1, (17, 9)),
    (16, 16, 9, 5, 0, (11, 19)),
    (3, 20, 1, 3, 1, (7, 15)),
    (1, 17, 17, 3, 0, (9, 9)),
]


def _shifted_case(batch, ci, co, k, padding, hw, dtype, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, ci) + hw).astype(dtype)
    w = rng.standard_normal((co, ci, k, k)).astype(dtype)
    return x, w


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch, ci, co, k, padding, hw", SHIFTED_SHAPES)
def test_shifted_conv_matches_im2col_gemm(batch, ci, co, k, padding, hw,
                                          dtype):
    """Every grad mode runs the shifted GEMM.  It is the im2col conv to
    the dtype's tolerance, the shifted output of each image does not
    depend on the batch around it, and a training forward has the bytes
    of the ``no_grad`` one and saves the zero-bordered input for backward,
    not im2col columns."""
    x, w = _shifted_case(batch, ci, co, k, padding, hw, dtype)
    assert F.shifted_conv_applies(ci, co, (k, k), (1, 1))
    with no_grad():
        out, _ = F.conv2d_fwd(x, w, stride=(1, 1), padding=(padding,) * 2)
        first, _ = F.conv2d_fwd(x[:1], w, stride=(1, 1),
                                padding=(padding,) * 2)
    cols, (oh, ow) = F.im2col(x, (k, k), (1, 1), (padding,) * 2)
    ref = (w.reshape(co, -1) @ cols).reshape(batch, co, oh, ow)
    assert out.shape == ref.shape and out.dtype == dtype
    tol = 1e-4 if dtype == np.float32 else 1e-12
    np.testing.assert_allclose(out, ref, rtol=tol, atol=tol)
    assert out[:1].tobytes() == first.tobytes()

    grad_out, grad_ctx = F.conv2d_fwd(x, w, stride=(1, 1),
                                      padding=(padding,) * 2)
    assert grad_out.tobytes() == out.tobytes()
    saved = [a for a in grad_ctx if isinstance(a, np.ndarray)]
    bordered = (batch, ci, hw[0] + 2 * padding, hw[1] + 2 * padding)
    assert bordered in [a.shape for a in saved]
    assert all(a.size < cols.size for a in saved)


@pytest.mark.parametrize("ci, co, kernel, stride, shifted", [
    (16, 7, (3, 3), (1, 1), True),     # ALF code convs
    (32, 13, (3, 3), (1, 1), True),
    (64, 18, (3, 3), (1, 1), True),
    (16, 16, (3, 3), (1, 1), True),    # dense stride-1 convs
    (64, 64, (3, 3), (1, 1), True),
    (16, 16, (5, 5), (1, 1), True),
    (16, 16, (1, 3), (1, 1), True),
    (3, 16, (3, 3), (1, 1), False),    # stem: too few input channels
    (8, 8, (3, 3), (1, 1), False),
    (15, 7, (3, 3), (1, 1), False),
    (16, 32, (3, 3), (1, 1), False),   # widening
    (16, 32, (3, 3), (2, 2), False),   # stride 2
    (32, 18, (3, 3), (2, 2), False),
    (32, 32, (3, 3), (1, 2), False),
    (64, 64, (1, 1), (1, 1), False),   # 1x1: no taps to shift
])
def test_shifted_conv_rule(ci, co, kernel, stride, shifted):
    assert F.shifted_conv_applies(ci, co, kernel, stride) is shifted


def test_shifted_conv_taps_are_row_major_filter_slices():
    w = np.arange(4 * 3 * 2 * 3, dtype=np.float64).reshape(4, 3, 2, 3)
    taps = F.shifted_conv_taps(w)
    assert taps.shape == (6, 4, 3) and taps.flags.c_contiguous
    for t in range(6):
        assert np.array_equal(taps[t], w[:, :, t // 3, t % 3])
