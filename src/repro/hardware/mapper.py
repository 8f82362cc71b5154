"""Tiling search ("mapper") for the analytical Eyeriss model.

Timeloop explores loop-nest mappings exhaustively; this module performs the
analogous search over a compact, deterministic space: the number of input
channels, output channels and image rows processed per global-buffer tile.
Every candidate is checked against the buffer capacity constraints and the
cheapest feasible mapping (by total energy) is returned, mirroring the
paper's "exhaustive mapper with a victory condition" setup in spirit while
remaining fully reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Tuple

from .dataflow import SpatialMapping, map_row_stationary
from .layer import ConvLayerShape
from .spec import EyerissSpec


@dataclass(frozen=True)
class Tiling:
    """Channels / rows held on-chip (global buffer) per temporal tile."""

    in_channels_per_tile: int
    out_channels_per_tile: int
    output_rows_per_tile: int

    def input_tile_words(self, layer: ConvLayerShape) -> int:
        # Input rows needed to produce the tile's output rows.
        rows = min(
            layer.input_hw[0],
            (self.output_rows_per_tile - 1) * layer.stride + layer.kernel_size,
        )
        return layer.batch * self.in_channels_per_tile * rows * layer.input_hw[1]

    def output_tile_words(self, layer: ConvLayerShape) -> int:
        return (layer.batch * self.out_channels_per_tile
                * self.output_rows_per_tile * layer.output_hw[1])

    def num_tiles(self, layer: ConvLayerShape) -> Tuple[int, int, int]:
        """(input-channel tiles, output-channel tiles, row tiles)."""
        return (
            math.ceil(layer.in_channels / self.in_channels_per_tile),
            math.ceil(layer.out_channels / self.out_channels_per_tile),
            math.ceil(layer.output_hw[0] / self.output_rows_per_tile),
        )


@dataclass(frozen=True)
class AccessCounts:
    """Word-granularity access counts per memory level for one layer."""

    register_file: int
    global_buffer: int
    dram: int

    def scaled(self, factor: float) -> "AccessCounts":
        return AccessCounts(
            register_file=int(self.register_file * factor),
            global_buffer=int(self.global_buffer * factor),
            dram=int(self.dram * factor),
        )


@dataclass(frozen=True)
class Mapping:
    """A fully evaluated mapping: spatial + temporal tiling + access counts.

    Frozen, like every part of it: memoized mappings are shared between
    all layers of one geometry.
    """

    layer: ConvLayerShape
    spatial: SpatialMapping
    tiling: Tiling
    accesses: AccessCounts
    energy: float

    @property
    def utilization(self) -> float:
        return self.spatial.utilization


def _divisor_candidates(limit: int) -> List[int]:
    """Candidate tile sizes: powers of two plus the full extent."""
    values = {1, limit}
    power = 1
    while power < limit:
        values.add(power)
        power *= 2
    return sorted(v for v in values if v >= 1)


def _count_accesses(layer: ConvLayerShape, tiling: Tiling, spec: EyerissSpec) -> Optional[AccessCounts]:
    """Access counts for one candidate tiling, or ``None`` if it does not fit."""
    input_tile = tiling.input_tile_words(layer)
    output_tile = tiling.output_tile_words(layer)
    # Inputs and outputs share the global buffer (weights bypass it).
    if input_tile + output_tile > spec.global_buffer_words:
        return None
    # The weight working set per PE must fit in the weight RF: one filter row
    # per (ci, co) pair held at a time; kernel_size words per row.
    if layer.kernel_size > spec.rf_weight_words:
        return None

    ci_tiles, co_tiles, row_tiles = tiling.num_tiles(layer)
    macs = layer.macs

    # Register file: each MAC reads a weight, reads an input and updates a
    # partial sum (read + write) from/to the local RFs.
    rf_accesses = 4 * macs

    # Global buffer: every input element of a tile is read once per
    # output-channel tile it contributes to; every output element is written
    # once and read back (ci_tiles - 1) times for partial-sum accumulation.
    gb_input_reads = layer.input_words * co_tiles
    gb_output_traffic = layer.output_words * (2 * ci_tiles - 1)
    gb_accesses = gb_input_reads + gb_output_traffic

    # DRAM: inputs enter the chip once per output-channel tile (they cannot
    # all be resident), outputs leave once; weights bypass the global buffer
    # and are re-streamed from DRAM for every (row tile) pass.
    dram_inputs = layer.input_words * co_tiles
    dram_outputs = layer.output_words
    dram_weights = layer.weight_words * row_tiles
    dram_accesses = dram_inputs + dram_outputs + dram_weights

    return AccessCounts(register_file=int(rf_accesses), global_buffer=int(gb_accesses),
                        dram=int(dram_accesses))


def _energy(accesses: AccessCounts, spec: EyerissSpec) -> float:
    table = spec.energy
    return (accesses.register_file * table.register_file
            + accesses.global_buffer * table.global_buffer
            + accesses.dram * table.dram)


def search_mapping(layer: ConvLayerShape, spec: EyerissSpec,
                   max_candidates: int = 100_000) -> Mapping:
    """Exhaustively search the tiling space and return the lowest-energy mapping.

    The search reads only the layer's geometry, so its result is memoized
    per process by ``(geometry, spec, max_candidates)``; the returned
    mapping carries the caller's own ``layer``.

    Raises ``RuntimeError`` if no feasible mapping exists (which for the
    modelled buffer sizes only happens for degenerate layers).
    """
    best = _search_geometry(replace(layer, name=""), spec, max_candidates)
    if best is None:
        raise RuntimeError(f"no feasible mapping found for layer '{layer.name}'")
    return replace(best, layer=layer)


@functools.lru_cache(maxsize=4096)
def _search_geometry(layer: ConvLayerShape, spec: EyerissSpec,
                     max_candidates: int) -> Optional[Mapping]:
    """The search behind :func:`search_mapping`; ``None`` when nothing fits."""
    spatial = map_row_stationary(layer, spec)
    best: Optional[Mapping] = None
    evaluated = 0
    for ci_tile in _divisor_candidates(layer.in_channels):
        for co_tile in _divisor_candidates(layer.out_channels):
            for row_tile in _divisor_candidates(layer.output_hw[0]):
                evaluated += 1
                if evaluated > max_candidates:
                    break
                tiling = Tiling(ci_tile, co_tile, row_tile)
                accesses = _count_accesses(layer, tiling, spec)
                if accesses is None:
                    continue
                energy = _energy(accesses, spec)
                if best is None or energy < best.energy:
                    best = Mapping(layer=layer, spatial=spatial, tiling=tiling,
                                   accesses=accesses, energy=energy)
    return best
