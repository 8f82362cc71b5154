"""Functional neural-network operations for the ``repro.nn`` framework.

Every function takes and returns :class:`~repro.nn.tensor.Tensor` objects
and participates in the recorded-op tape.  Convolutions are implemented
with an im2col lowering (:func:`im2col`, shared with compiled plans via
:func:`im2col_out`) so that the heavy lifting is a single matrix
multiply, which keeps pure-numpy training of the small CNNs used in the
ALF paper tractable.

A conv that :func:`shifted_conv_applies` to — stride 1, a kernel larger
than 1x1, at least :data:`SHIFTED_MIN_CHANNELS` input channels and no
more output than input channels — skips im2col in every grad mode:
:func:`shifted_conv` runs one GEMM per kernel tap over a zero-bordered
copy of the input.  Compiled plans run the same kernel on the same shapes,
so plans keep eager inference's bits, and a training forward has the
bits of an inference one; the two conv paths agree to rounding only.
Such a conv saves only its zero-bordered input for backward (about
``1/(kh·kw)`` of the columns): the input gradient is a shifted conv of
the output gradient zero-bordered by ``k - 1 - p`` with the flipped,
channel-transposed filters, and the filter gradient one batched GEMM
per tap.  The stem, strided and widening convs keep im2col and save the
columns.  The input gradient of such a stride-1 conv (padding at most
``k - 1``) is a transposed conv over im2col columns of the padded output
gradient; :func:`col2im` scatter-add remains for strided convs, padding
beyond ``k - 1`` and pools.

The conv/pool primitives and training-mode batch norm
(``batch_norm_train``, one op with an analytic backward instead of a
tape of eltwise ops) are **registered ops** (see
:func:`repro.nn.tensor.register_op`): their backward rules live next to
the forward code, no per-call closures are allocated, and under
:func:`~repro.nn.tensor.no_grad` the saved contexts are dropped
immediately.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

import numpy as np

from .tensor import (Tensor, apply_op, register_op,  # noqa: F401
                     unbroadcast)

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (int(value), int(value))


# --------------------------------------------------------------------------- #
# im2col / col2im
# --------------------------------------------------------------------------- #
def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


def sliding_windows(x: np.ndarray, kernel: Tuple[int, int],
                    stride: Tuple[int, int],
                    padding: Tuple[int, int]) -> np.ndarray:
    """Every conv window of a zero-padded ``(N, C, H, W)`` array.

    Returns an ``(N, C, kh, kw, out_h, out_w)`` strided view of ``x`` (of a
    padded copy when ``padding`` is non-zero); the windows are not copied.
    """
    ph, pw = padding
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    shape = (n, c, kh, kw, conv_output_size(h, kh, sh, 0),
             conv_output_size(w, kw, sw, 0))
    s = x.strides
    strides = (s[0], s[1], s[2], s[3], s[2] * sh, s[3] * sw)
    return np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)


def im2col(x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int],
           padding: Tuple[int, int]) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Lower a batched ``(N, C, H, W)`` image tensor to column form.

    Returns ``(cols, (out_h, out_w))`` with ``cols`` a fresh contiguous
    array of shape ``(N, C * kh * kw, out_h * out_w)``.
    """
    windows = sliding_windows(x, kernel, stride, padding)
    n, c, kh, kw, out_h, out_w = windows.shape
    cols = windows.reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols), (out_h, out_w)


def im2col_out(x: np.ndarray, kernel: Tuple[int, int],
               stride: Tuple[int, int], padding: Tuple[int, int],
               out: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int]]:
    """:func:`im2col` gathering into the contiguous ``out`` (same shape).

    Viewing ``out`` in window layout and copying produces exactly the
    bytes :func:`im2col` returns.
    """
    windows = sliding_windows(x, kernel, stride, padding)
    np.copyto(out.reshape(windows.shape), windows)
    return out, windows.shape[4:]


#: Fewest input channels a shifted-GEMM conv needs: below it each tap's
#: GEMM reduces over too few channels to beat one im2col GEMM.
SHIFTED_MIN_CHANNELS = 16


def shifted_conv_applies(in_channels: int, out_channels: int,
                         kernel: Tuple[int, int],
                         stride: Tuple[int, int]) -> bool:
    """Whether a conv runs as a shifted GEMM instead of im2col + one GEMM.

    A stride-1 conv with a kernel larger than 1x1, at least
    :data:`SHIFTED_MIN_CHANNELS` input channels and no more output than
    input channels: its per-tap GEMMs then write fewer bytes than im2col
    would copy.  The rule reads only the weight shape and stride, never
    the batch, so eager inference and every batch a plan binds agree.
    """
    return (tuple(stride) == (1, 1) and tuple(kernel) != (1, 1)
            and in_channels >= SHIFTED_MIN_CHANNELS
            and out_channels <= in_channels)


def shifted_conv_taps(weight: np.ndarray) -> np.ndarray:
    """``(Co, Ci, kh, kw)`` filters as ``kh*kw`` contiguous ``(Co, Ci)`` tap
    matrices, in row-major tap order."""
    co, ci, kh, kw = weight.shape
    return np.ascontiguousarray(weight.transpose(2, 3, 0, 1)).reshape(
        kh * kw, co, ci)


def shifted_conv(flat: np.ndarray, taps: np.ndarray,
                 kernel: Tuple[int, int], width: int, acc: np.ndarray,
                 tmp: np.ndarray, out: np.ndarray) -> Callable[[], None]:
    """A stride-1 convolution as one GEMM per kernel tap, without im2col.

    ``flat`` is the zero-bordered input, C-contiguous ``(N, C, Hp, Wp)``
    viewed as ``(N, C, Hp*Wp)`` with ``width = Wp``.  Output pixel
    ``(r, c)`` reads tap ``(i, j)`` at flat offset ``(r + i)·Wp + c + j``,
    so each tap's input is the contiguous slice of ``L = (OH-1)·Wp + OW``
    columns starting at ``i·Wp + j``, and the conv is ``Σ_t taps[t] @
    slice_t``: the first tap's GEMM writes ``acc``, each later one writes
    ``tmp`` and is added into ``acc`` in place.  Column ``r·Wp + c`` of the
    sum is output pixel ``(r, c)`` for ``c < OW``; the others wrapped round
    a row edge, and the last add writes only the valid ones, into ``out``
    ``(N, Co, OH, OW)``.

    Returns ``run()``, which computes the conv from the current contents
    of ``flat`` (its views are made once, so a compiled plan builds it
    once per step).  ``acc`` and ``tmp`` are C-contiguous ``(N, Co, L)``
    scratch, so every add but the last runs as one flat loop, and the
    kernel has at least two taps.  Each GEMM's shapes depend only on the
    conv's geometry and ``np.matmul`` runs one GEMM per image, so the
    bits do not depend on the batch or on where the buffers live.
    """
    kh, kw = kernel
    oh, ow = out.shape[2], out.shape[3]
    span = acc.shape[2]
    (first, first_window), *middle, (last, last_window) = [
        (taps[i * kw + j], flat[:, :, i * width + j:i * width + j + span])
        for i in range(kh) for j in range(kw)]
    acc_valid = _valid_columns(acc, width, oh, ow)
    tmp_valid = _valid_columns(tmp, width, oh, ow)
    matmul, add = np.matmul, np.add

    def run() -> None:
        matmul(first, first_window, out=acc)
        for tap, window in middle:
            matmul(tap, window, out=tmp)
            add(acc, tmp, out=acc)
        matmul(last, last_window, out=tmp)
        add(acc_valid, tmp_valid, out=out)
    return run


def _valid_columns(rows: np.ndarray, width: int, oh: int,
                   ow: int) -> np.ndarray:
    """The ``(N, Co, OH, OW)`` output pixels of a contiguous ``(N, Co, L)``
    shifted-GEMM result whose rows are ``width`` columns apart."""
    s = rows.strides
    return np.ndarray(rows.shape[:2] + (oh, ow), rows.dtype, rows, 0,
                      (s[0], s[1], width * s[2], s[2]))


def col2im(cols: np.ndarray, input_shape: Tuple[int, int, int, int],
           kernel: Tuple[int, int], stride: Tuple[int, int],
           padding: Tuple[int, int], output_size: Tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`im2col` by scatter-add (conv backward)."""
    n, c, h, w = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h, out_w = output_size

    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            padded[:, :, i:i_end:sh, j:j_end:sw] += cols[:, :, i, j, :, :]
    if ph or pw:
        return padded[:, :, ph:ph + h, pw:pw + w]
    return padded


# --------------------------------------------------------------------------- #
# Convolution / pooling ops
# --------------------------------------------------------------------------- #
def _zero_bordered(x: np.ndarray, border: Tuple[int, int]) -> np.ndarray:
    """A fresh ``(N, C, H + 2·bh, W + 2·bw)`` copy of ``x`` inside a zero
    border."""
    n, c, h, w = x.shape
    bh, bw = border
    padded = np.zeros((n, c, h + 2 * bh, w + 2 * bw), dtype=x.dtype)
    padded[:, :, bh:bh + h, bw:bw + w] = x
    return padded


def _run_shifted_conv(padded: np.ndarray, taps: np.ndarray,
                      kernel: Tuple[int, int], dtype) -> np.ndarray:
    """:func:`shifted_conv` of a zero-bordered ``(N, C, Hp, Wp)`` array
    into fresh scratch; returns the ``(N, Co, OH, OW)`` output."""
    n, c, hp, wp = padded.shape
    co = taps.shape[1]
    out_h, out_w = hp - kernel[0] + 1, wp - kernel[1] + 1
    acc = np.empty((n, co, (out_h - 1) * wp + out_w), dtype=dtype)
    out = np.empty((n, co, out_h, out_w), dtype=dtype)
    shifted_conv(padded.reshape(n, c, hp * wp), taps, kernel, wp, acc,
                 np.empty_like(acc), out)()
    return out


def _conv2d_fwd(x, weight, *bias, stride, padding):
    n, ci, h, w = x.shape
    co, ci_w, kh, kw = weight.shape
    if ci != ci_w:
        raise ValueError(f"input channels ({ci}) do not match weight channels ({ci_w})")
    b_shape = bias[0].shape if bias else None
    if shifted_conv_applies(ci, co, (kh, kw), stride):
        # The kernel and scratch shapes a compiled plan's conv step uses,
        # hence the same bits in every grad mode.  The backward reads the
        # zero-bordered input, not im2col columns kh·kw times its size.
        padded = _zero_bordered(x, padding)
        out = _run_shifted_conv(padded, shifted_conv_taps(weight), (kh, kw),
                                np.result_type(x, weight))
        if bias:
            out += bias[0].reshape(1, co, 1, 1)
        return out, (True, padded, weight, x.shape, stride, padding, b_shape)
    cols, (out_h, out_w) = im2col(x, (kh, kw), stride, padding)
    w_mat = weight.reshape(co, -1)
    # (o, f) @ (n, f, l) -> (n, o, l): the same GEMM call the compiled plan
    # makes into its arena buffers, so both reduce in one order.
    out = (w_mat @ cols).reshape(n, co, out_h, out_w)
    if bias:
        # The GEMM output is fresh and unshared, so the bias is added in
        # place without materializing a second full activation array.
        out += bias[0].reshape(1, co, 1, 1)
    return out, (False, cols, weight, x.shape, stride, padding, b_shape)


def _conv2d_grad_input(grad, w_mat, x_shape, kernel, stride, padding):
    """Input gradient of a convolution with ``(Co, Ci*kh*kw)`` filters ``w_mat``.

    A stride-1 conv whose padding is at most ``k - 1`` on each axis has
    the transposed conv as its input gradient: the output gradient,
    zero-padded by ``k - 1 - p``, correlated with the spatially flipped,
    channel-transposed filters -- one :func:`im2col` and one GEMM.  Every
    other conv scatters the column gradient back with :func:`col2im`.
    """
    n, ci, h, w = x_shape
    co = w_mat.shape[0]
    kh, kw = kernel
    ph, pw = padding
    grad_mat = grad.reshape(n, co, -1)
    if stride != (1, 1) or ph >= kh or pw >= kw:
        grad_cols = np.einsum("of,nol->nfl", w_mat, grad_mat, optimize=True)
        return col2im(grad_cols, x_shape, kernel, stride, padding,
                      grad.shape[2:])
    if (kh, kw, ph, pw) == (1, 1, 0, 0):
        return (w_mat.T @ grad_mat).reshape(x_shape)
    w_flip = w_mat.reshape(co, ci, kh, kw)[:, :, ::-1, ::-1]
    w_t = w_flip.transpose(1, 0, 2, 3).reshape(ci, co * kh * kw)
    grad_cols, _ = im2col(grad, kernel, (1, 1), (kh - 1 - ph, kw - 1 - pw))
    return (w_t @ grad_cols).reshape(n, ci, h, w)


def _shifted_conv_grads(padded, weight, grad, x_shape, padding, needs):
    """``(grad_x, grad_w)`` of a shifted-GEMM conv from its zero-bordered
    ``(N, Ci, Hp, Wp)`` input.

    ``grad_x`` is the transposed conv, itself a :func:`shifted_conv`: the
    output gradient zero-bordered by ``k - 1 - p`` against the flipped,
    channel-transposed filters.  Padding beyond ``k - 1`` scatters
    through :func:`col2im` instead.  ``grad_w`` is one batched GEMM per
    tap, ``Σ_n G[n] @ slice_t[n]ᵀ``, with ``slice_t`` the forward's input
    slice and ``G`` the ``(N, Co, L)`` gradient laid out ``Wp`` columns
    per row with zeros in the wrap columns.  Where the bordered gradient
    is ``Wp`` wide (``2p = k - 1``, so its border fills the wrap columns)
    ``G`` is a view of it; otherwise it is a zero-bordered copy.
    """
    n, ci, hp, wp = padded.shape
    co, _, kh, kw = weight.shape
    ph, pw = padding
    out_h, out_w = grad.shape[2:]
    span = (out_h - 1) * wp + out_w
    dtype = np.result_type(padded, weight, grad)
    border = (kh - 1 - ph, kw - 1 - pw)
    transposed = min(border) >= 0
    if transposed:
        bordered = _zero_bordered(grad, border)
    grad_x = grad_w = None
    if needs[1]:
        if transposed and bordered.shape[3] == wp:
            start = border[0] * wp + border[1]
            g = bordered.reshape(n, co, -1)[:, :, start:start + span]
        else:
            g = np.zeros((n, co, out_h, wp), dtype=grad.dtype)
            g[:, :, :, :out_w] = grad
            g = g.reshape(n, co, -1)[:, :, :span]
        flat = padded.reshape(n, ci, hp * wp)
        taps = np.empty((kh * kw, co, ci), dtype=dtype)
        for i in range(kh):
            for j in range(kw):
                offset = i * wp + j
                window = flat[:, :, offset:offset + span].transpose(0, 2, 1)
                np.matmul(g, window).sum(axis=0, out=taps[i * kw + j])
        grad_w = np.ascontiguousarray(
            taps.reshape(kh, kw, co, ci).transpose(2, 3, 0, 1))
    if needs[0]:
        if transposed:
            flipped = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            grad_x = _run_shifted_conv(bordered, shifted_conv_taps(flipped),
                                       (kh, kw), dtype)
        else:
            grad_x = _conv2d_grad_input(grad, weight.reshape(co, -1), x_shape,
                                        (kh, kw), (1, 1), padding)
    return grad_x, grad_w


def _conv2d_bwd(ctx, grad, needs):
    shifted, saved, weight, x_shape, stride, padding, b_shape = ctx
    if shifted:
        grad_x, grad_w = _shifted_conv_grads(saved, weight, grad, x_shape,
                                             padding, needs)
    else:
        co = weight.shape[0]
        grad_x = grad_w = None
        if needs[1]:
            grad_w = np.einsum("nol,nfl->of", grad.reshape(x_shape[0], co, -1),
                               saved, optimize=True).reshape(weight.shape)
        if needs[0]:
            grad_x = _conv2d_grad_input(grad, weight.reshape(co, -1), x_shape,
                                        weight.shape[2:], stride, padding)
    grad_b = None
    if len(needs) > 2 and needs[2]:
        grad_b = grad.sum(axis=(0, 2, 3)).reshape(b_shape)
    return (grad_x, grad_w, grad_b)[:len(needs)]


def _max_pool2d_fwd(x, *, kernel, stride):
    n, c, h, w = x.shape
    cols, (out_h, out_w) = im2col(x, kernel, stride, (0, 0))
    cols = cols.reshape(n, c, kernel[0] * kernel[1], out_h * out_w)
    argmax = cols.argmax(axis=2)
    out = np.take_along_axis(cols, argmax[:, :, None, :], axis=2).squeeze(2)
    out = out.reshape(n, c, out_h, out_w)
    return out, (argmax, x.shape, kernel, stride, (out_h, out_w))


def _max_pool2d_bwd(ctx, grad, needs):
    argmax, x_shape, kernel, stride, (out_h, out_w) = ctx
    n, c, _, _ = x_shape
    window = kernel[0] * kernel[1]
    grad_cols = np.zeros((n, c, window, out_h * out_w), dtype=grad.dtype)
    np.put_along_axis(
        grad_cols, argmax[:, :, None, :], grad.reshape(n, c, 1, out_h * out_w), axis=2
    )
    grad_cols = grad_cols.reshape(n, c * window, out_h * out_w)
    return (col2im(grad_cols, x_shape, kernel, stride, (0, 0), (out_h, out_w)),)


def _avg_pool2d_fwd(x, *, kernel, stride):
    n, c, h, w = x.shape
    cols, (out_h, out_w) = im2col(x, kernel, stride, (0, 0))
    cols = cols.reshape(n, c, kernel[0] * kernel[1], out_h * out_w)
    out = cols.mean(axis=2).reshape(n, c, out_h, out_w)
    return out, (x.shape, kernel, stride, (out_h, out_w))


def _avg_pool2d_bwd(ctx, grad, needs):
    x_shape, kernel, stride, (out_h, out_w) = ctx
    n, c, _, _ = x_shape
    window = kernel[0] * kernel[1]
    grad_cols = np.broadcast_to(
        grad.reshape(n, c, 1, out_h * out_w) / window,
        (n, c, window, out_h * out_w),
    ).reshape(n, c * window, out_h * out_w)
    return (col2im(np.ascontiguousarray(grad_cols), x_shape, kernel,
                   stride, (0, 0), (out_h, out_w)),)


_CONV2D = register_op("conv2d", _conv2d_fwd, _conv2d_bwd)
_MAX_POOL2D = register_op("max_pool2d", _max_pool2d_fwd, _max_pool2d_bwd)
_AVG_POOL2D = register_op("avg_pool2d", _avg_pool2d_fwd, _avg_pool2d_bwd)

#: Raw forward kernels, exposed for tape-free consumers.  A compiled
#: inference plan (:mod:`repro.deploy`) executes these directly on arrays —
#: no Tensor wrapping, no tape, no context retention; each returns
#: ``(out_array, ctx)`` and the caller drops ``ctx``.
conv2d_fwd = _conv2d_fwd
max_pool2d_fwd = _max_pool2d_fwd
avg_pool2d_fwd = _avg_pool2d_fwd


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: IntPair = 1, padding: IntPair = 0) -> Tensor:
    """2D convolution.

    ``x`` has shape ``(N, Ci, H, W)`` and ``weight`` has shape
    ``(Co, Ci, KH, KW)``; output has shape ``(N, Co, Ho, Wo)``.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    if bias is None:
        return apply_op(_CONV2D, x, weight, stride=stride, padding=padding)
    return apply_op(_CONV2D, x, weight, bias, stride=stride, padding=padding)


def max_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) spatial windows."""
    kernel = _pair(kernel_size)
    stride = _pair(stride) if stride is not None else kernel
    return apply_op(_MAX_POOL2D, x, kernel=kernel, stride=stride)


def avg_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Average pooling over spatial windows."""
    kernel = _pair(kernel_size)
    stride = _pair(stride) if stride is not None else kernel
    return apply_op(_AVG_POOL2D, x, kernel=kernel, stride=stride)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning ``(N, C)``."""
    return x.mean(axis=(2, 3))


# --------------------------------------------------------------------------- #
# Dense / normalization
# --------------------------------------------------------------------------- #
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with ``weight`` of shape (out, in)."""
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def _batch_norm_train_fwd(x, gamma, beta, *, running_mean, running_var,
                          momentum, eps):
    # The composed formula's array ops in its order (``mean`` is ``sum ·
    # (1/M)``, ``x - mean`` is ``x + (-mean)``, constants take the dtype
    # of the array they meet), so outputs and running statistics keep
    # the bytes of the former tape of eltwise ops.
    axes = (0,) + tuple(range(2, x.ndim))
    shape = (1, -1) + (1,) * (x.ndim - 2)
    inv_count = np.asarray(1.0 / (x.size // x.shape[1]), dtype=x.dtype)
    mean = x.sum(axis=axes, keepdims=True) * inv_count
    centered = x + (-mean)
    var = (centered * centered).sum(axis=axes, keepdims=True) * inv_count
    running_mean *= (1.0 - momentum)
    running_mean += momentum * mean.reshape(-1)
    running_var *= (1.0 - momentum)
    running_var += momentum * var.reshape(-1)
    std = (var + np.asarray(eps, dtype=var.dtype)) ** 0.5
    x_hat = centered / std
    out = x_hat * gamma.reshape(shape) + beta.reshape(shape)
    return out, (x_hat, std, gamma, beta.shape, axes, shape)


def _batch_norm_train_bwd(ctx, grad, needs):
    """``dx = γ/(σ·M) · (M·dy − Σdy − x̂·Σ(dy·x̂))``, ``dγ = Σ(dy·x̂)``,
    ``dβ = Σdy``, the sums over every axis but the channel."""
    x_hat, std, gamma, beta_shape, axes, shape = ctx
    count = x_hat.size // x_hat.shape[1]
    grad_sum = grad.sum(axis=axes, keepdims=True)
    grad_dot = (grad * x_hat).sum(axis=axes, keepdims=True)
    grad_x = None
    if needs[0]:
        scale = gamma.reshape(shape) / (std * count)
        grad_x = scale * (count * grad - grad_sum - x_hat * grad_dot)
    return (grad_x,
            grad_dot.reshape(gamma.shape) if needs[1] else None,
            grad_sum.reshape(beta_shape) if needs[2] else None)


_BATCH_NORM_TRAIN = register_op("batch_norm_train", _batch_norm_train_fwd,
                                _batch_norm_train_bwd)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Batch normalization over the channel dimension of ``(N, C, H, W)`` or ``(N, C)``.

    ``running_mean``/``running_var`` are plain numpy buffers updated in place
    when ``training`` is true.  Training runs one registered op,
    ``batch_norm_train``, with an analytic backward; inference is composed
    of eltwise ops, which compiled plans fuse into conv epilogues.
    """
    if x.ndim == 4:
        shape = (1, -1, 1, 1)
    elif x.ndim == 2:
        shape = (1, -1)
    else:
        raise ValueError("batch_norm expects a 2D or 4D input")

    if training:
        return apply_op(_BATCH_NORM_TRAIN, x, gamma, beta,
                        running_mean=running_mean, running_var=running_var,
                        momentum=momentum, eps=eps)
    mean = Tensor(running_mean.reshape(shape).astype(x.data.dtype, copy=False))
    var = Tensor(running_var.reshape(shape).astype(x.data.dtype, copy=False))
    x_hat = (x - mean) / (var + eps) ** 0.5
    return x_hat * gamma.reshape(shape) + beta.reshape(shape)


def dropout(x: Tensor, p: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask.astype(x.data.dtype, copy=False))


# --------------------------------------------------------------------------- #
# Activations and classification heads
# --------------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    return x.relu()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def identity(x: Tensor) -> Tensor:
    return x


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


ACTIVATIONS = {
    "relu": relu,
    "tanh": tanh,
    "sigmoid": sigmoid,
    "none": identity,
    "identity": identity,
}


def get_activation(name: Optional[str]):
    """Look up an activation function by name (``None`` means identity)."""
    if name is None:
        return identity
    key = name.lower()
    if key not in ACTIVATIONS:
        raise KeyError(f"unknown activation '{name}'; choose from {sorted(ACTIVATIONS)}")
    return ACTIVATIONS[key]
