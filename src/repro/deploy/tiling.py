"""Tiled / streaming convolution execution for compiled plans.

The im2col lowering materializes a ``(N, C·KH·KW, OH·OW)`` column block —
``KH·KW`` times the activation it lowers.  Stride-1 convs over at least 16
channels that do not widen run the shifted GEMM instead
(:func:`~repro.nn.functional.shifted_conv`) and build no such block; for
the convs that keep im2col (the stem, strided and widening convs) it is
the largest intermediate, so a plan compiled with ``memory_budget=``
splits their spatial output into **row bands**: one band of output rows is
gathered into a fixed scratch buffer, contracted into the matching slice of
the (full) output, and the scratch is reused for the next band.  Peak
column memory then scales with one band instead of one whole layer.

The Eyeriss-style accelerator modeled by the paper schedules convolutions
exactly this way — a static per-layer row-stationary dataflow over on-chip
buffers — so this module is the software mirror of that schedule.

Numerical note: each output element is still the same contraction over the
same reduction axis, but BLAS rounds a ragged edge tile of GEMM output
columns with another micro-kernel, so bands are cut at whole tiles where the
row count allows (:func:`aligned_band_rows`) and then reproduce the unbanded
GEMM's bits; ragged bands agree with it to normal floating-point tolerance.
The plan compiler only bands im2col convolutions whose column block exceeds
the budget, and never bands below :data:`MIN_BAND_ROWS` output rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from ..nn.functional import sliding_windows

#: Never shrink a band below this many output rows: extremely narrow GEMMs
#: waste the whole point of the lowering (and amplify the numerical
#: difference between banded and unbanded contraction paths).
MIN_BAND_ROWS = 4

#: Widest tile of GEMM output columns a BLAS micro-kernel computes at once
#: (16 for OpenBLAS's Haswell sgemm kernel; its dgemm tile divides it).
GEMM_COLUMN_TILE = 16


def band_plan(out_h: int, cols_row_bytes: int,
              memory_budget: Optional[int]) -> int:
    """Rows per band so that one band's columns fit ``memory_budget`` bytes.

    ``cols_row_bytes`` is the byte size of one output row's column block
    (``N · C·KH·KW · OW · itemsize``).  Returns ``out_h`` (no banding
    needed) when the whole block fits or no budget is set.
    """
    if out_h <= 0:
        raise ValueError("out_h must be positive")
    if memory_budget is None or cols_row_bytes * out_h <= memory_budget:
        return out_h
    rows = max(1, memory_budget // cols_row_bytes)
    return max(MIN_BAND_ROWS, min(out_h, int(rows)))


def band_overrun(band_rows: int, cols_row_bytes: int,
                 memory_budget: Optional[int]) -> int:
    """Bytes by which one ``band_rows``-row band exceeds ``memory_budget``.

    Returns 0 when the band fits (or no budget is set).  A positive value
    means the :data:`MIN_BAND_ROWS` floor won over the budget: the caller
    asked for fewer bytes than even the narrowest permissible band needs,
    so the achievable peak is ``band_rows * cols_row_bytes``, not the
    budget.  The plan compiler surfaces this as a ``UserWarning`` plus
    ``PlanStats.streaming_peak_bytes`` instead of pretending the budget
    held.
    """
    if memory_budget is None:
        return 0
    return max(0, band_rows * cols_row_bytes - int(memory_budget))


def aligned_band_rows(band_rows: int, out_w: int) -> int:
    """Most rows, at most ``band_rows``, spanning whole column tiles, or
    ``band_rows`` if none do.  Qualifying counts are the multiples of a
    power of two, so this keeps ``band_rows >= MIN_BAND_ROWS`` true."""
    return next((rows for rows in range(band_rows, 0, -1)
                 if rows * out_w % GEMM_COLUMN_TILE == 0), band_rows)


def iter_bands(out_h: int, band_rows: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(row_start, row_stop)`` output-row bands covering ``out_h``."""
    for start in range(0, out_h, band_rows):
        yield start, min(out_h, start + band_rows)


@dataclass
class StreamedConv:
    """Execution state of one banded convolution step.

    ``padded`` is the dedicated zero-bordered input scratch (borders are
    written once at allocation and never touched again); ``cols`` is the
    band-sized column scratch reused across bands.
    """

    kernel: Tuple[int, int]
    stride: Tuple[int, int]
    band_rows: int
    out_hw: Tuple[int, int]

    def run(self, x: np.ndarray, padded: np.ndarray, cols: np.ndarray,
            w_mat: np.ndarray, out3d: np.ndarray) -> None:
        """One full banded convolution: fill ``out3d`` slice by slice."""
        n, c = x.shape[0], x.shape[1]
        kh, kw = self.kernel
        out_h, out_w = self.out_hw
        ph = (padded.shape[2] - x.shape[2]) // 2
        pw = (padded.shape[3] - x.shape[3]) // 2
        if ph or pw:
            padded[:, :, ph:ph + x.shape[2], pw:pw + x.shape[3]] = x
            source = padded
        else:
            source = x
        windows = sliding_windows(source, self.kernel, self.stride, (0, 0))
        for r0, r1 in iter_bands(out_h, aligned_band_rows(self.band_rows,
                                                          out_w)):
            rows = r1 - r0
            band_cols = cols[:, :, :rows * out_w]
            np.copyto(
                band_cols.reshape(n, c, kh, kw, rows, out_w),
                windows[:, :, :, :, r0:r1, :],
            )
            np.matmul(w_mat, band_cols,
                      out=out3d[:, :, r0 * out_w:r1 * out_w])
