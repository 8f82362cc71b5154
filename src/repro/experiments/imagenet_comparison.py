"""Experiment E7 — Table III: benchmarking on ImageNet.

The Params / OPs columns are computed at the paper's true 224x224 geometry
for all reference architectures (SqueezeNet, GoogLeNet, ResNet-18) and for
the pruned ResNet-18 variants (LCNN, FPGM, AMC, ALF).  The pruned rows are
one cost-only :func:`repro.api.run_sweep` over :func:`table3_specs`, whose
shared dense baseline is the ResNet-18 row; every layer counts
(``conv_only=False``), as in the paper's ImageNet table.  Accuracies cannot
be measured at ImageNet scale on a pure-numpy substrate; the paper's
reported accuracies are attached for reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..api import (
    ALFSpec,
    AMCSpec,
    CompressionSpec,
    FPGMSpec,
    LCNNSpec,
    run_sweep,
)
from ..metrics import MethodResult, profile_model
from ..metrics.tables import format_count, render_table
from ..models import googlenet, squeezenet
from .paper_values import TABLE3_IMAGENET

IMAGENET_INPUT = (3, 224, 224)


@dataclass
class Table3Row:
    method: str
    policy: str
    params: Optional[float]
    ops: float
    paper_params_m: Optional[float]
    paper_ops_m: Optional[float]
    paper_accuracy: Optional[float]

    def as_cells(self) -> List[str]:
        return [
            self.method, self.policy,
            format_count(self.params), format_count(self.ops),
            format_count(self.paper_params_m * 1e6 if self.paper_params_m is not None else None),
            format_count(self.paper_ops_m * 1e6 if self.paper_ops_m is not None else None),
            f"{self.paper_accuracy:.1f}" if self.paper_accuracy is not None else "-",
        ]


@dataclass
class Table3Result:
    rows: List[Table3Row] = field(default_factory=list)

    def by_method(self, method: str) -> Table3Row:
        for row in self.rows:
            if row.method == method:
                return row
        raise KeyError(f"no row for method '{method}'")

    def method_results(self) -> List[MethodResult]:
        return [MethodResult(r.method, r.policy, r.params, r.ops,
                             r.paper_accuracy if r.paper_accuracy is not None else 0.0)
                for r in self.rows]

    def render(self) -> str:
        headers = ["Method", "Policy", "Params", "OPs", "Paper Params", "Paper OPs",
                   "Paper Acc[%]"]
        return render_table(headers, [r.as_cells() for r in self.rows],
                            title="Table III — benchmarking on ImageNet")


def table3_specs(seed: int = 0,
                 alf_remaining_fraction: float = 0.33) -> List[CompressionSpec]:
    """The pruned ResNet-18 rows of Table III, labelled by row.

    The operating points match the paper's reported reductions; ALF's
    default remaining-filter fraction (~33%) yields its ~2.8x parameter and
    ~3x OPs reduction.  Only costs are read, so LCNN skips rewriting the
    weights and ALF skips building the deployed model.
    """
    common = dict(conv_only=False, seed=seed)
    return [
        CompressionSpec(method="lcnn", label="LCNN", **common,
                        config=LCNNSpec(dictionary_fraction=0.12, sparsity=3,
                                        apply=False)),
        CompressionSpec(method="fpgm", label="FPGM", **common,
                        config=FPGMSpec(prune_ratio=0.22)),
        CompressionSpec(method="amc", label="AMC", **common,
                        config=AMCSpec(target_ops_fraction=0.5, iterations=3,
                                       population=6)),
        CompressionSpec(method="alf", label="ALF", **common,
                        config=ALFSpec(remaining_fraction=alf_remaining_fraction,
                                       deploy=False)),
    ]


def run(seed: int = 0, alf_remaining_fraction: float = 0.33) -> Table3Result:
    """Regenerate Table III's cost columns (accuracy columns quote the paper)."""
    sweep = run_sweep(table3_specs(seed, alf_remaining_fraction),
                      model="resnet18", hardware=None,
                      input_shape=IMAGENET_INPUT, seed=seed)
    paper = TABLE3_IMAGENET
    result = Table3Result()

    def add(method: str, policy: str, cost: Dict[str, float]) -> None:
        result.rows.append(Table3Row(
            method, policy, cost["params"], cost["ops"],
            paper[method]["params_m"], paper[method]["ops_m"],
            paper[method]["accuracy"],
        ))

    rng = np.random.default_rng(seed)
    for name, factory in [("SqueezeNet", squeezenet), ("GoogleNet", googlenet)]:
        profile = profile_model(factory(rng=rng), IMAGENET_INPUT)
        add(name, "—", {"params": profile.total_params(),
                        "ops": profile.total_ops()})
    add("ResNet-18", "—", sweep.dense.cost)
    for report in sweep.reports:
        add(report.spec.label, report.policy, report.cost)
    return result


def relative_ops_factors(result: Table3Result) -> Dict[str, float]:
    """The "x1.4 / x2.4 / x3.0 fewer OPs" comparison quoted in Sec. IV-B."""
    alf_ops = result.by_method("ALF").ops
    return {
        "vs_squeezenet": result.by_method("SqueezeNet").ops / alf_ops,
        "vs_googlenet": result.by_method("GoogleNet").ops / alf_ops,
        "vs_resnet18": result.by_method("ResNet-18").ops / alf_ops,
    }
