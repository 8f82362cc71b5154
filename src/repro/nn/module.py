"""Module system: parameters, modules and containers.

Mirrors the familiar PyTorch ``nn.Module`` contract (recursive parameter
discovery, train/eval switching, state dicts) so that models, ALF blocks
and baselines compose naturally.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .tensor import (
    Tensor,
    grad_mode_override,
    no_grad,
    op_hooks_active,
    pop_layer_scope,
    push_layer_scope,
)


class Parameter(Tensor):
    """A tensor that is registered as trainable state of a module."""

    def __init__(self, data, requires_grad: bool = True, name: Optional[str] = None):
        super().__init__(data, requires_grad=requires_grad, name=name)


class Module:
    """Base class for every trainable component.

    Subclasses assign :class:`Parameter`, :class:`Module` and numpy buffers
    as attributes; they are discovered automatically for optimization,
    serialization and train/eval mode propagation.
    """

    #: The attribute name this module was registered under in its parent;
    #: layer scopes (:mod:`repro.nn.profiler`) join these into module paths.
    #: A module assigned to several attributes keeps the *last* assignment's
    #: name — aliased (weight-shared) submodules are profiled under it.
    _scope: Optional[str] = None

    def __init__(self):
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------ #
    # Attribute registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
            value._scope = name
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. BatchNorm running statistics)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, param: Parameter) -> None:
        self._parameters[name] = param
        object.__setattr__(self, name, param)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def children(self) -> Iterator["Module"]:
        return iter(self._modules.values())

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield (f"{prefix}{name}", buf)
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    # ------------------------------------------------------------------ #
    # Mode / gradient management
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Switch to inference mode.

        Besides flipping layer behaviour (BatchNorm running stats, Dropout
        off), an eval-mode module is executed under
        :func:`~repro.nn.tensor.no_grad`: its forward passes build no tape
        nodes at all.  Wrap the call in
        :func:`~repro.nn.tensor.enable_grad` when gradients through an
        eval-mode forward are explicitly needed (e.g. gradcheck).
        """
        return self.train(False)

    def astype(self, dtype) -> "Module":
        """Cast every parameter and floating buffer to ``dtype`` in place."""
        dtype = np.dtype(dtype)
        for module in self.modules():
            for param in module._parameters.values():
                if param is not None and param.data.dtype.kind == "f":
                    param.data = param.data.astype(dtype, copy=False)
            for name, buf in list(module._buffers.items()):
                if isinstance(buf, np.ndarray) and buf.dtype.kind == "f":
                    module.register_buffer(name, buf.astype(dtype, copy=False))
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total number of scalar parameters held by this module tree."""
        return sum(
            p.size for p in self.parameters() if (p.requires_grad or not trainable_only)
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[f"buffer:{name}"] = buf.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for name, param in self.named_parameters():
            if name in state:
                if param.data.shape != state[name].shape:
                    raise ValueError(
                        f"shape mismatch for '{name}': "
                        f"{param.data.shape} vs {state[name].shape}"
                    )
                param.data = state[name].copy()
        for name, buf in self.named_buffers():
            key = f"buffer:{name}"
            if key in state:
                buf[...] = state[key]

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        # Layer scopes: while op observers are installed in this thread,
        # nested module calls maintain a path stack so apply_op can
        # attribute every op to its executing layer.  Without observers
        # the check is a single truthiness test and no scope is pushed.
        if op_hooks_active():
            push_layer_scope(self._scope or type(self).__name__)
            try:
                return self._invoke(args, kwargs)
            finally:
                pop_layer_scope()
        return self._invoke(args, kwargs)

    def _invoke(self, args, kwargs):
        # Eval-mode modules run tape-free unless an explicit grad-mode
        # override (no_grad / enable_grad) is already in force, or a graph
        # is flowing through the inputs (e.g. a frozen submodule inside a
        # training forward must not detach its upstream layers).
        if (not self.training and grad_mode_override() is None
                and not any(isinstance(a, Tensor) and a.requires_grad
                            for a in (*args, *kwargs.values()))):
            with no_grad():
                return self.forward(*args, **kwargs)
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_repr = ", ".join(self._modules.keys())
        return f"{type(self).__name__}({child_repr})"


class Sequential(Module):
    """Chain modules, feeding each output to the next module's input."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._ordered: List[Module] = []
        for index, module in enumerate(modules):
            setattr(self, f"layer{index}", module)
            self._ordered.append(module)

    def append(self, module: Module) -> "Sequential":
        index = len(self._ordered)
        setattr(self, f"layer{index}", module)
        self._ordered.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._ordered)

    def __getitem__(self, index: int) -> Module:
        return self._ordered[index]

    def forward(self, x):
        for module in self._ordered:
            x = module(x)
        return x


class ModuleList(Module):
    """Hold an ordered list of submodules without implying a call order."""

    def __init__(self, modules: Optional[List[Module]] = None):
        super().__init__()
        self._ordered: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        index = len(self._ordered)
        setattr(self, f"item{index}", module)
        self._ordered.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._ordered)

    def __getitem__(self, index: int) -> Module:
        return self._ordered[index]

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container and cannot be called directly")
