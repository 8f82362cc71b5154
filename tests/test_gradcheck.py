"""Finite-difference gradient checks across the ``nn.functional`` ops.

Every registered functional op (conv2d, the pools, batch_norm,
softmax/log_softmax, dropout in eval) is verified against central finite
differences in **both float32 and float64**, exercising the tape engine's
registered backward rules in the dtype of the fast path as well as the
reference dtype.

The numeric gradient is always accumulated in float64 (perturbing a
float32 input but reading the loss in full precision) so the check
measures the analytic rule's correctness, not float32 round-off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor, enable_grad

#: (eps, atol, rtol) per dtype: float32 needs a coarser step and looser
#: tolerances because the forward itself rounds to ~1e-7.
TOLERANCES = {
    np.float64: (1e-6, 1e-7, 1e-5),
    np.float32: (1e-3, 2e-3, 2e-2),
}


def gradcheck(fn, *arrays, dtype=np.float64, seed=0):
    """Check the analytic gradient of ``fn`` w.r.t. every input array.

    ``fn`` maps Tensors to one output Tensor of any shape; the output is
    reduced to a scalar with a fixed random weighting so every output
    element contributes to the check.  Raises ``AssertionError`` with a
    diagnostic on mismatch; returns ``True`` otherwise.
    """
    dtype = np.dtype(dtype)
    eps, atol, rtol = TOLERANCES[dtype.type]
    arrays = [np.asarray(a, dtype=dtype) for a in arrays]
    weights = np.random.default_rng(seed).standard_normal(
        fn(*[Tensor(a) for a in arrays]).shape)

    def scalar(values) -> float:
        out = fn(*[Tensor(v) for v in values])
        return float(np.sum(out.data.astype(np.float64) * weights))

    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    (out * Tensor(weights.astype(dtype))).sum().backward()

    for index, (tensor, base) in enumerate(zip(tensors, arrays)):
        assert tensor.grad is not None, f"input {index} received no gradient"
        analytic = tensor.grad.astype(np.float64)
        numeric = np.zeros(base.shape, dtype=np.float64)
        flat = base.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            upper = scalar(arrays)
            flat[i] = original - eps
            lower = scalar(arrays)
            flat[i] = original
            num_flat[i] = (upper - lower) / (2.0 * eps)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            max_err = np.max(np.abs(analytic - numeric))
            raise AssertionError(
                f"gradient mismatch for input {index} ({dtype}): "
                f"max abs error {max_err:.3e}")
    return True


#: (kernel, padding) of every square conv with padding up to ``k - 1``.
CONV_GEOMETRIES = [(k, p) for k in (1, 3, 5) for p in range(k)]

#: (kernel, padding, image, bias) of convs the shifted GEMM runs: ``2p =
#: k - 1`` (the output gradient's zero border doubles as ``grad_w``'s
#: wrap columns), padding 0 (a separate zero-bordered gradient), a
#: non-square image and kernel, and padding beyond ``k - 1`` on one axis
#: (``grad_x`` through ``col2im``).
SHIFTED_GEOMETRIES = [
    ((3, 3), (1, 1), (5, 5), True),
    ((5, 5), (2, 2), (5, 6), False),
    ((3, 3), (0, 0), (5, 6), True),
    ((3, 3), (1, 1), (4, 7), False),
    ((3, 1), (1, 0), (5, 3), True),
    ((3, 3), (3, 1), (3, 4), False),
]


def _shifted_id(value):
    if isinstance(value, tuple):
        return "x".join(map(str, value))
    return "bias" if value else "nobias"


def _shifted_arrays(rng, kernel, hw, ci=16, co=3, batch=2):
    x = rng.standard_normal((batch, ci) + hw)
    w = rng.standard_normal((co, ci) + kernel) * 0.25
    b = rng.standard_normal(co)
    return x, w, b


@pytest.fixture(params=[np.float64, np.float32], ids=["float64", "float32"])
def dtype(request):
    return request.param


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestFunctionalGradcheck:
    def test_conv2d(self, dtype, rng):
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3)) * 0.5
        b = rng.standard_normal(4)
        gradcheck(lambda x_, w_, b_: F.conv2d(x_, w_, b_, stride=2, padding=1),
                  x, w, b, dtype=dtype)

    def test_conv2d_no_bias(self, dtype, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3)) * 0.5
        gradcheck(lambda x_, w_: F.conv2d(x_, w_, stride=1, padding=0),
                  x, w, dtype=dtype)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel, padding", CONV_GEOMETRIES)
    def test_conv2d_geometry(self, dtype, rng, kernel, padding, stride):
        """Stride 1 runs the transposed-conv input gradient, stride 2 the
        ``col2im`` scatter; both over every padding up to ``k - 1``."""
        x = rng.standard_normal((2, 2, 7, 6))
        w = rng.standard_normal((3, 2, kernel, kernel)) * 0.5
        b = rng.standard_normal(3)
        gradcheck(lambda x_, w_, b_: F.conv2d(x_, w_, b_, stride=stride,
                                              padding=padding),
                  x, w, b, dtype=dtype)

    def test_conv2d_padding_beyond_kernel(self, dtype, rng):
        """Padding ``> k - 1`` on one axis falls back to ``col2im``."""
        x = rng.standard_normal((2, 2, 5, 4))
        w = rng.standard_normal((3, 2, 3, 1)) * 0.5
        gradcheck(lambda x_, w_: F.conv2d(x_, w_, stride=1, padding=(1, 1)),
                  x, w, dtype=dtype)

    @pytest.mark.parametrize("kernel, padding, hw, bias", SHIFTED_GEOMETRIES,
                             ids=_shifted_id)
    def test_conv2d_shifted(self, dtype, rng, kernel, padding, hw, bias):
        """Convs with 16 input channels run the shifted-GEMM forward and
        backward: ``grad_x`` as a shifted transposed conv (or ``col2im``
        past ``k - 1`` padding), ``grad_w`` as one batched GEMM per tap."""
        x, w, b = _shifted_arrays(rng, kernel, hw)
        assert F.shifted_conv_applies(x.shape[1], w.shape[0], kernel, (1, 1))
        if bias:
            gradcheck(lambda x_, w_, b_: F.conv2d(x_, w_, b_, padding=padding),
                      x, w, b, dtype=dtype)
        else:
            gradcheck(lambda x_, w_: F.conv2d(x_, w_, padding=padding),
                      x, w, dtype=dtype)

    def test_conv2d_shifted_one_input_frozen(self, dtype, rng):
        """The shifted backward skips the gradient nobody needs: a constant
        input still gives ``grad_w``, a constant filter ``grad_x``."""
        x, w, _ = _shifted_arrays(rng, (3, 3), (5, 4))
        x, w = x.astype(dtype), w.astype(dtype)
        gradcheck(lambda w_: F.conv2d(Tensor(x), w_, padding=1), w,
                  dtype=dtype)
        gradcheck(lambda x_: F.conv2d(x_, Tensor(w), padding=1), x,
                  dtype=dtype)

    def test_batch_norm_training_2d_frozen_affine(self, dtype, rng):
        """``batch_norm_train`` on ``(N, C)`` input with constant γ, β."""
        x = rng.standard_normal((6, 4)) * 2.0 + 1.0
        gamma = (rng.standard_normal(4) * 0.5 + 1.0).astype(dtype)
        beta = rng.standard_normal(4).astype(dtype)

        def fn(x_):
            return F.batch_norm(x_, Tensor(gamma), Tensor(beta),
                                np.zeros(4, dtype=dtype),
                                np.ones(4, dtype=dtype), training=True)

        gradcheck(fn, x, dtype=dtype)

    def test_max_pool2d(self, dtype, rng):
        # A distinct-valued input avoids window ties, where the subgradient
        # choice (split between ties) legitimately differs from the
        # one-sided numeric estimate.
        x = rng.permutation(2 * 3 * 16).reshape(2, 3, 4, 4) * 0.1
        gradcheck(lambda x_: F.max_pool2d(x_, 2), x, dtype=dtype)

    def test_avg_pool2d(self, dtype, rng):
        x = rng.standard_normal((2, 2, 6, 6))
        gradcheck(lambda x_: F.avg_pool2d(x_, 3, stride=3), x, dtype=dtype)

    def test_global_avg_pool2d(self, dtype, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        gradcheck(F.global_avg_pool2d, x, dtype=dtype)

    def test_linear(self, dtype, rng):
        x = rng.standard_normal((4, 5))
        w = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        gradcheck(F.linear, x, w, b, dtype=dtype)

    def test_batch_norm_training(self, dtype, rng):
        x = rng.standard_normal((4, 3, 2, 2)) * 2.0
        gamma = rng.standard_normal(3) * 0.5 + 1.0
        beta = rng.standard_normal(3)

        def fn(x_, g_, b_):
            running_mean = np.zeros(3, dtype=dtype)
            running_var = np.ones(3, dtype=dtype)
            return F.batch_norm(x_, g_, b_, running_mean, running_var,
                                training=True)

        gradcheck(fn, x, gamma, beta, dtype=dtype)

    def test_batch_norm_eval(self, dtype, rng):
        x = rng.standard_normal((4, 3))
        gamma = np.ones(3)
        beta = np.zeros(3)
        running_mean = rng.standard_normal(3).astype(dtype)
        running_var = (rng.random(3) + 0.5).astype(dtype)

        def fn(x_, g_, b_):
            return F.batch_norm(x_, g_, b_, running_mean, running_var,
                                training=False)

        gradcheck(fn, x, gamma, beta, dtype=dtype)

    def test_batch_norm_eval_affine_4d(self, dtype, rng):
        """Eval batch norm, ``x · s + t``, differentiates through ``s`` and
        ``t`` to γ and β as well as to ``x``."""
        x = rng.standard_normal((3, 4, 2, 3)) * 2.0
        gamma = rng.standard_normal(4) * 0.5 + 1.0
        beta = rng.standard_normal(4)
        running_mean = rng.standard_normal(4).astype(dtype)
        running_var = (rng.random(4) + 0.5).astype(dtype)

        def fn(x_, g_, b_):
            return F.batch_norm(x_, g_, b_, running_mean, running_var,
                                training=False)

        gradcheck(fn, x, gamma, beta, dtype=dtype)

    def test_softmax(self, dtype, rng):
        x = rng.standard_normal((3, 5))
        gradcheck(lambda x_: F.softmax(x_, axis=1), x, dtype=dtype)

    def test_log_softmax(self, dtype, rng):
        x = rng.standard_normal((3, 5))
        gradcheck(lambda x_: F.log_softmax(x_, axis=1), x, dtype=dtype)

    def test_dropout_eval_is_identity_gradient(self, dtype, rng):
        # With an explicit enable_grad, gradients flow through the
        # eval-mode (identity) dropout path even inside no-grad contexts.
        x = rng.standard_normal((4, 4))
        with enable_grad():
            gradcheck(lambda x_: F.dropout(x_, p=0.5, training=False),
                      x, dtype=dtype)

    def test_relu_away_from_kink(self, dtype, rng):
        x = rng.standard_normal((5, 5))
        x = np.where(np.abs(x) < 0.1, 0.5, x)  # keep clear of the kink
        gradcheck(F.relu, x, dtype=dtype)


def _pair_id(pair):
    return "x".join(map(str, pair))


@pytest.mark.parametrize("stride", [(1, 1), (2, 2), (1, 2)], ids=_pair_id)
@pytest.mark.parametrize("kernel, padding", [
    *(((k, k), (p, p)) for k, p in CONV_GEOMETRIES),
    ((3, 1), (1, 0)), ((3, 1), (1, 1)), ((1, 3), (2, 1))], ids=_pair_id)
def test_conv2d_grad_input_matches_col2im(kernel, padding, stride):
    """The input gradient equals the ``col2im`` scatter of the column
    gradient within float64 rounding, on both backward paths."""
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 3, 9, 8)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3) + kernel))
    out = F.conv2d(x, w, stride=stride, padding=padding)
    grad = rng.standard_normal(out.shape)
    out.backward(grad)
    w_mat = w.data.reshape(4, -1)
    grad_cols = np.einsum("of,nol->nfl", w_mat, grad.reshape(2, 4, -1))
    reference = F.col2im(grad_cols, x.shape, kernel, stride, padding,
                         out.shape[2:])
    np.testing.assert_allclose(x.grad, reference, rtol=0,
                               atol=1e-13 * np.abs(reference).max())


@pytest.mark.parametrize("kernel, padding, hw, bias", SHIFTED_GEOMETRIES,
                         ids=_shifted_id)
def test_conv2d_shifted_grads_match_im2col(kernel, padding, hw, bias):
    """The shifted backward equals the im2col one within float64
    rounding: ``grad_x`` against :func:`_conv2d_grad_input`, ``grad_w``
    against the ``nol,nfl->of`` contraction with the im2col columns."""
    rng = np.random.default_rng(5)
    x, w, b = _shifted_arrays(rng, kernel, hw, ci=17, co=5, batch=3)
    x = Tensor(x, requires_grad=True)
    w = Tensor(w, requires_grad=True)
    b = Tensor(b, requires_grad=True) if bias else None
    out = F.conv2d(x, w, b, padding=padding)
    grad = rng.standard_normal(out.shape)
    out.backward(grad)
    grad_mat = grad.reshape(3, 5, -1)
    cols, _ = F.im2col(x.data, kernel, (1, 1), padding)
    ref_w = np.einsum("nol,nfl->of", grad_mat, cols).reshape(w.shape)
    ref_x = F._conv2d_grad_input(grad, w.data.reshape(5, -1), x.shape,
                                 kernel, (1, 1), padding)
    for got, ref in ((w.grad, ref_w), (x.grad, ref_x)):
        np.testing.assert_allclose(got, ref, rtol=0,
                                   atol=1e-13 * np.abs(ref).max())
    if bias:
        np.testing.assert_allclose(b.grad, grad.sum(axis=(0, 2, 3)),
                                   rtol=1e-13)
