"""Functional neural-network operations for the ``repro.nn`` framework.

Every function takes and returns :class:`~repro.nn.tensor.Tensor` objects
and participates in the recorded-op tape.  Convolutions are implemented
with an im2col lowering (:func:`im2col`, shared with compiled plans via
:func:`im2col_out`) so that the heavy lifting is a single matrix
multiply, which keeps pure-numpy training of the small CNNs used in the
ALF paper tractable.

Inference (grad mode off) needs no columns for backward, so a conv that
:func:`shifted_conv_applies` to — stride 1, a kernel larger than 1x1, at
least :data:`SHIFTED_MIN_CHANNELS` input channels and no more output than
input channels — skips im2col: :func:`shifted_conv` runs one GEMM per
kernel tap over a zero-bordered copy of the input.  Compiled plans run the
same kernel on the same shapes, so plans keep eager inference's bits; the
two conv paths agree to rounding only.

Conv backward computes the input gradient of a stride-1 conv (padding at
most ``k - 1``) as a transposed conv: im2col over the zero-padded output
gradient and one GEMM with the flipped, channel-transposed filters.
:func:`col2im` scatter-add remains only for strided convs and pools.

The conv/pool primitives are **registered ops** (see
:func:`repro.nn.tensor.register_op`): their backward rules live next to
the forward code, no per-call closures are allocated, and under
:func:`~repro.nn.tensor.no_grad` the saved im2col columns are dropped
immediately.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

import numpy as np

from .tensor import (Tensor, apply_op, is_grad_enabled,  # noqa: F401
                     register_op, unbroadcast)

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
def _conv2d_fwd(x, weight, *bias, stride, padding):
    n, ci, h, w = x.shape
    co, ci_w, kh, kw = weight.shape
    if ci != ci_w:
        raise ValueError(f"input channels ({ci}) do not match weight channels ({ci_w})")
    if not is_grad_enabled() and shifted_conv_applies(ci, co, (kh, kw),
                                                      stride):
        # Without a tape nothing reads im2col columns back, so this conv
        # runs the shifted GEMM: the kernel and scratch shapes a compiled
        # plan's conv step uses, hence the same bits.  A training forward
        # keeps im2col below, since the backward reuses the columns.
        ph, pw = padding
        hp, wp = h + 2 * ph, w + 2 * pw
        padded = np.zeros((n, ci, hp, wp), dtype=x.dtype)
        padded[:, :, ph:ph + h, pw:pw + w] = x
        out_h, out_w = hp - kh + 1, wp - kw + 1
        dtype = np.result_type(x, weight)
        acc = np.empty((n, co, (out_h - 1) * wp + out_w), dtype=dtype)
        out = np.empty((n, co, out_h, out_w), dtype=dtype)
        shifted_conv(padded.reshape(n, ci, hp * wp), shifted_conv_taps(weight),
                     (kh, kw), wp, acc, np.empty_like(acc), out)()
        if bias:
            out += bias[0].reshape(1, co, 1, 1)
        return out, None
    cols, (out_h, out_w) = im2col(x, (kh, kw), stride, padding)
    w_mat = weight.reshape(co, -1)
    # (o, f) @ (n, f, l) -> (n, o, l): the same GEMM call the compiled plan
    # makes into its arena buffers, so both reduce in one order.
    out = (w_mat @ cols).reshape(n, co, out_h, out_w)
    if bias:
        # The GEMM output is fresh and unshared, so the bias is added in
        # place without materializing a second full activation array.
        out += bias[0].reshape(1, co, 1, 1)
    ctx = (cols, w_mat, x.shape, weight.shape, (kh, kw), stride, padding,
           (out_h, out_w), bias[0].shape if bias else None)
    return out, ctx


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


def _conv2d_bwd(ctx, grad, needs):
    cols, w_mat, x_shape, w_shape, kernel, stride, padding, out_hw, b_shape = ctx
    n = x_shape[0]
    co = w_shape[0]
    out_h, out_w = out_hw
    grad_mat = grad.reshape(n, co, out_h * out_w)
    grad_x = grad_w = grad_b = None
    if needs[1]:
        grad_w = np.einsum("nol,nfl->of", grad_mat, cols,
                           optimize=True).reshape(w_shape)
    if needs[0]:
        grad_x = _conv2d_grad_input(grad, w_mat, x_shape, kernel, stride,
                                    padding)
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


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Batch normalization over the channel dimension of ``(N, C, H, W)`` or ``(N, C)``.

    ``running_mean``/``running_var`` are plain numpy buffers updated in place
    when ``training`` is true.
    """
    if x.ndim == 4:
        axes = (0, 2, 3)
        shape = (1, -1, 1, 1)
    elif x.ndim == 2:
        axes = (0,)
        shape = (1, -1)
    else:
        raise ValueError("batch_norm expects a 2D or 4D input")

    if training:
        mean = x.mean(axis=axes, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=axes, keepdims=True)
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean.data.reshape(-1)
        running_var *= (1.0 - momentum)
        running_var += momentum * var.data.reshape(-1)
        x_hat = (x - mean) / (var + eps) ** 0.5
    else:
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
