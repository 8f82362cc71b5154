"""``repro.deploy`` — compiled inference plans.

:func:`compile` turns a trained model into a static
:class:`InferencePlan`: one traced forward pass lowered onto a
:class:`~repro.deploy.arena.BufferArena` of preallocated, liveness-reused
buffers, with constant freezing, optional BatchNorm folding, conv
epilogue fusion (frozen BatchNorm, residual add and activation run in
place inside the conv step) and (under ``memory_budget=``) row-band
streaming of oversized im2col convolutions.  Default-option plans are
bit-identical to the eager ``model(x)`` under ``no_grad()``.

Plans also have a wire form: ``plan.save()``/``InferencePlan.load()``
(and ``to_bytes()``/``from_bytes()``) round-trip the versioned
``repro-plan/2`` container — a JSON header over one raw, aligned weight
blob — bit-identically, and ``plan.bind(batch=...)`` re-derives
the buffer layout for another batch size from the same symbolic-batch
program without re-tracing the model.
"""

from .arena import ArenaStats, BufferArena, BufferRef
from .plan import InferencePlan, PlanStats, compile
from .serialize import PLAN_SCHEMA, load_plan, save_plan
from .tiling import MIN_BAND_ROWS, StreamedConv, band_overrun, band_plan, \
    iter_bands

__all__ = [
    "compile", "InferencePlan", "PlanStats",
    "PLAN_SCHEMA", "save_plan", "load_plan",
    "BufferArena", "BufferRef", "ArenaStats",
    "StreamedConv", "band_plan", "band_overrun", "iter_bands",
    "MIN_BAND_ROWS",
]
