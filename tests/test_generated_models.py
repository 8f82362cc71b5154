"""Plan contracts on seeded random networks, not only on the model zoo.

A seeded numpy generator builds small nets over the traced layer set:
convs with random kernel, stride, padding and bias; frozen BatchNorm;
relu / tanh / sigmoid; max and avg pooling; residual adds; channel
concats; and deployed ALF blocks (:class:`CompressedConv2d`).  Every net
also carries a conv with some all-zero filters feeding relu → conv, the
pattern a dead-filter elision pass would rewrite.  Such a pass is not
bit-exact (dropping zero addends from a GEMM reduction changes how the
BLAS kernel groups the rest), so plans keep dead filters.

For every seed, in float32 and float64, three contracts hold:

* the compiled plan's output bytes equal the eager forward's;
* save → load → save is a byte fixed point, and the loaded plan computes
  the same bytes;
* ``plan.bind(k)`` at a random batch ``k`` equals eager at that batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.deploy import CompressedConv2d
from repro.deploy import InferencePlan, compile
from repro.nn import Tensor, no_grad
from repro.nn import functional as F
from repro.nn.backend import get_backend, use_backend
from repro.nn.layers import (AvgPool2d, BatchNorm2d, Conv2d, MaxPool2d, ReLU,
                             Sigmoid, Tanh)
from repro.nn.module import Module, Sequential
from repro.nn.tensor import concatenate

SEEDS = range(16)


class _Residual(Module):
    def __init__(self, body: Module):
        super().__init__()
        self.body = body

    def forward(self, x):
        return x + self.body(x)


class _Concat(Module):
    def __init__(self, branch: Module):
        super().__init__()
        self.branch = branch

    def forward(self, x):
        return concatenate([x, self.branch(x)], axis=1)


class _Net:
    """Builds one random layer stack, tracking channels and spatial size."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.channels = int(self.rng.integers(1, 5))
        self.hw = (int(self.rng.integers(6, 13)), int(self.rng.integers(6, 13)))
        self.input_shape = (self.channels,) + self.hw

    def _normal(self, *shape, scale=1.0):
        return self.rng.standard_normal(shape) * scale

    def conv(self, c_out: int, *, same: bool = False) -> Conv2d:
        """A conv with random geometry; ``same`` keeps the spatial size."""
        rng = self.rng
        k = int(rng.choice([1, 3]))
        stride = 1 if same or min(self.hw) < 6 else int(rng.integers(1, 3))
        padding = (k // 2 if same or min(self.hw) < k
                   else int(rng.integers(0, k // 2 + 1)))
        conv = Conv2d(self.channels, c_out, k, stride=stride,
                      padding=padding, bias=bool(rng.integers(2)), rng=rng)
        if conv.bias is not None:
            conv.bias.data[...] = self._normal(c_out, scale=0.1)
        self.channels = c_out
        self.hw = conv.output_shape(self.hw)
        return conv

    def bn(self) -> BatchNorm2d:
        c = self.channels
        bn = BatchNorm2d(c)
        bn.gamma.data[...] = 1.0 + self._normal(c, scale=0.2)
        bn.beta.data[...] = self._normal(c, scale=0.2)
        bn.running_mean[...] = self._normal(c, scale=0.2)
        bn.running_var[...] = self.rng.uniform(0.5, 2.0, c)
        return bn

    def activation(self) -> Module:
        return [ReLU, Tanh, Sigmoid][int(self.rng.integers(3))]()

    def pool(self) -> Module:
        self.hw = (self.hw[0] // 2, self.hw[1] // 2)
        return [MaxPool2d, AvgPool2d][int(self.rng.integers(2))](2)

    def dead(self) -> Sequential:
        """conv with some all-zero filters → relu → conv."""
        first = self.conv(int(self.rng.integers(3, 7)))
        dead = self.rng.permutation(first.out_channels)[
            :int(self.rng.integers(1, first.out_channels))]
        first.weight.data[dead] = 0.0
        if first.bias is not None:
            first.bias.data[dead] = 0.0
        return Sequential(first, ReLU(),
                          self.conv(int(self.rng.integers(2, 6))))

    def compressed(self) -> CompressedConv2d:
        """A deployed ALF block, sometimes with dead code filters left in."""
        rng = self.rng
        code, c_out = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        k = int(rng.choice([1, 3]))
        stride = 1 if min(self.hw) < 6 else int(rng.integers(1, 3))
        padding = (k // 2 if min(self.hw) < k
                   else int(rng.integers(0, k // 2 + 1)))
        code_weight = self._normal(code, self.channels, k, k, scale=0.5)
        if rng.integers(2):
            code_weight[rng.integers(code)] = 0.0
        sigma = [None, "relu", "tanh", "sigmoid"][int(rng.integers(4))]
        self.channels = code
        bn_inter = self.bn() if rng.integers(2) else None
        block = CompressedConv2d(
            code_weight, self._normal(c_out, code, 1, 1, scale=0.5),
            stride=stride, padding=padding,
            bias=self._normal(c_out, scale=0.1) if rng.integers(2) else None,
            sigma_inter=sigma, bn_inter=bn_inter)
        self.channels = c_out
        self.hw = tuple(F.conv_output_size(size, k, stride, padding)
                        for size in self.hw)
        return block

    def residual(self) -> _Residual:
        body = [self.conv(self.channels, same=True)]
        if self.rng.integers(2):
            body.append(self.bn())
        return _Residual(Sequential(*body))

    def concat(self) -> _Concat:
        c_in = self.channels
        branch = self.conv(int(self.rng.integers(1, 4)), same=True)
        self.channels += c_in
        return _Concat(branch)

    def build(self) -> Sequential:
        layers = [self.conv(int(self.rng.integers(2, 6)))]
        kinds = ["bn", "activation", "pool", "compressed", "residual",
                 "concat", "conv"]
        body = list(self.rng.choice(kinds, size=int(self.rng.integers(3, 7))))
        body.insert(int(self.rng.integers(len(body) + 1)), "dead")
        for kind in body:
            if kind == "pool" and min(self.hw) < 4:
                kind = "activation"
            if kind == "conv":
                layers.append(self.conv(int(self.rng.integers(2, 7))))
            else:
                layers.append(getattr(self, kind)())
        return Sequential(*layers)


def generated_net(seed: int, backend):
    """``(model, input_shape)`` of the seeded net in ``backend``'s dtype."""
    with use_backend(backend):
        net = _Net(seed)
        model = net.build()
    model.astype(backend.dtype)
    model.eval()
    return model, net.input_shape


def _eager(model, x):
    with no_grad():
        return model(Tensor(x)).data


@pytest.mark.parametrize("backend", ["numpy32", "numpy64"])
@pytest.mark.parametrize("seed", SEEDS)
def test_generated_net_plan_contracts(seed, backend):
    backend = get_backend(backend)
    model, shape = generated_net(seed, backend)
    rng = np.random.default_rng(1000 + seed)
    batch, k = (int(b) for b in rng.integers(1, 5, size=2))
    x = rng.standard_normal((max(batch, k),) + shape).astype(backend.dtype)
    with use_backend(backend):
        plan = compile(model, shape, batch=batch)
        ref = _eager(model, x[:batch])
        out = plan(x[:batch]).data
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes(), "plan diverged from eager"

        data = plan.to_bytes()
        loaded = InferencePlan.from_bytes(data)
        assert loaded.to_bytes() == data
        assert loaded(x[:batch]).data.tobytes() == out.tobytes()

        bound = plan.bind(k)
        assert bound(x[:k]).data.tobytes() == _eager(model, x[:k]).tobytes()


def test_generator_covers_the_traced_layer_set():
    """Across the seeds, every layer kind the suite promises appears."""
    seen = set()
    for seed in SEEDS:
        model, _ = generated_net(seed, get_backend("numpy64"))
        for module in model.modules():
            seen.add(type(module).__name__)
            if isinstance(module, Conv2d):
                seen.add(f"stride{module.stride[0]}")
                seen.add(f"pad{module.padding[0]}")
                seen.add("bias" if module.bias is not None else "no-bias")
            if isinstance(module, CompressedConv2d):
                seen.add("bn_inter" if module.bn_inter is not None
                         else "no-bn_inter")
                if module._sigma_inter is not F.identity:
                    seen.add("sigma_inter")
    assert seen >= {
        "Conv2d", "BatchNorm2d", "ReLU", "Tanh", "Sigmoid", "MaxPool2d",
        "AvgPool2d", "_Residual", "_Concat", "CompressedConv2d",
        "stride1", "stride2", "pad0", "pad1", "bias", "no-bias",
        "bn_inter", "no-bn_inter", "sigma_inter"}
