"""``repro.core`` — the ALF method (the paper's primary contribution).

Public API
----------
:class:`ALFConfig`
    Hyper-parameters of the ALF blocks and the two-player training scheme.
:class:`ALFConv2d`
    Drop-in replacement for a convolution: code conv + expansion layer,
    compressed online by a sparse weight autoencoder.
:func:`convert_to_alf`
    Swap the convolutions of an existing model for ALF blocks.
:class:`ALFTrainer`
    Two-player training loop (task optimizer + per-block AE optimizers).
:func:`compress_model`
    Deployment step: drop the autoencoders, remove zeroed filters, return a
    dense compressed model.
"""

from .alf_block import ALFBlockStats, ALFConv2d, ccode_max
from .autoencoder import AutoencoderOutput, WeightAutoencoder
from .config import ALFConfig, PAPER_DEFAULT
from .convert import alf_blocks, convert_to_alf, default_convert_predicate, named_alf_blocks
from .deploy import (
    CompressedConv2d,
    CompressionRecord,
    CompressionResult,
    compress_block,
    compress_model,
    compressed_blocks,
)
from .mask import PruningMask
from .schedule import PruningSchedule, nu_prune
from .trainer import (
    ALFTrainer,
    ClassifierTrainer,
    EpochStats,
    TrainingHistory,
    evaluate_accuracy,
)

__all__ = [
    "ALFConfig", "PAPER_DEFAULT",
    "ALFConv2d", "ALFBlockStats", "ccode_max",
    "WeightAutoencoder", "AutoencoderOutput", "PruningMask",
    "PruningSchedule", "nu_prune",
    "convert_to_alf", "default_convert_predicate", "alf_blocks", "named_alf_blocks",
    "ALFTrainer", "ClassifierTrainer", "EpochStats", "TrainingHistory",
    "evaluate_accuracy",
    "compress_model", "compress_block", "compressed_blocks",
    "CompressedConv2d", "CompressionRecord", "CompressionResult",
]
