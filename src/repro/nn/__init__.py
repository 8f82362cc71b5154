"""``repro.nn`` — a compact numpy deep-learning framework.

This package is the training substrate for the ALF reproduction: a
tape-based autograd engine over numpy arrays (:mod:`repro.nn.tensor`),
functional ops (:mod:`repro.nn.functional`), layers and containers,
initializers, optimizers, losses and straight-through-estimator
primitives.

Execution is controlled by two orthogonal switches:

* the **backend** (:func:`use_backend` / :func:`set_backend`) is a named
  default dtype (:mod:`repro.nn.backend`): ``"numpy"`` float64 by default,
  ``"numpy32"`` for the float32 fast path, the same as
  ``use_backend(dtype="float32")``;
* the **grad mode** (:func:`no_grad` / :func:`enable_grad`) decides
  whether forward passes record tape nodes; eval-mode modules run
  tape-free automatically.
"""

from . import backend
from . import functional
from . import init
from . import loss
from . import optim
from . import profiler
from . import ste
from . import utils
from .backend import (
    Backend,
    available_backends,
    current_backend,
    get_backend,
    get_default_dtype,
    set_backend,
    set_default_dtype,
    use_backend,
)
from .layers import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
    activation_module,
)
from .module import Module, ModuleList, Parameter, Sequential
from .optim import SGD, Adam, CosineAnnealingLR, MultiStepLR, StepLR
from .profiler import (
    OpProfile,
    OpStat,
    RunProfile,
    collect_profile,
    layer_op_seconds,
    profile_inference,
)
from .tensor import (
    OpRecord,
    Tensor,
    add_op_hook,
    apply_op,
    concatenate,
    current_layer,
    enable_grad,
    grad_mode_override,
    installed_op_hooks,
    is_grad_enabled,
    no_grad,
    ones,
    observe_ops,
    op_hooks_active,
    randn,
    register_op,
    registered_ops,
    remove_op_hook,
    restore_op_hooks,
    set_grad_mode,
    stack,
    tape_nodes_created,
    zeros,
)

__all__ = [
    "Tensor", "Parameter", "Module", "Sequential", "ModuleList",
    "Conv2d", "Linear", "BatchNorm1d", "BatchNorm2d", "ReLU", "Tanh", "Sigmoid",
    "Identity", "MaxPool2d", "AvgPool2d", "GlobalAvgPool2d", "Flatten", "Dropout",
    "activation_module",
    "SGD", "Adam", "StepLR", "MultiStepLR", "CosineAnnealingLR",
    "functional", "init", "loss", "optim", "profiler", "ste", "utils",
    "backend",
    "concatenate", "stack", "zeros", "ones", "randn",
    # engine: grad modes, tape introspection, op registry
    "no_grad", "enable_grad", "is_grad_enabled", "grad_mode_override",
    "set_grad_mode", "tape_nodes_created",
    "register_op", "registered_ops", "apply_op",
    "add_op_hook", "remove_op_hook", "installed_op_hooks", "restore_op_hooks",
    "observe_ops", "OpRecord", "op_hooks_active", "current_layer",
    # profiler: structured layer-scoped reports
    "OpProfile", "OpStat", "RunProfile", "collect_profile",
    "layer_op_seconds", "profile_inference",
    # engine: backends
    "Backend", "available_backends", "current_backend",
    "get_backend", "set_backend", "use_backend",
    "get_default_dtype", "set_default_dtype",
]
