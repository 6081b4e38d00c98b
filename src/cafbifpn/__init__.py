"""Verifiable numeric kernels for a feature-enhancement and
attention-fusion pyramid: multi-branch convolution blocks, regionally
routed attention, and weighted bidirectional feature fusion, all built on
an explicit reverse-mode tape and checked against independent oracles.
"""

from .attention import BraParams, RoutingResult, ba_forward, make_bra_params
from .cfe import CfeParams, cfe_forward, cfe_receptive_probe, make_cfe_params
from .convops import (Conv2dParams, DeformableParams, conv2d,
                      deformable_conv2d, deformable_conv2d_with_offsets)
from .errors import (ConfigError, FormatError, GraphError, KernelError,
                     NumericError, PartitionError, PipelineError, ShapeError)
from .instrumentation import count_macs
from .pipeline import (FusionWeights, PipelineParams, afbifpn_forward,
                       build_pipeline_params, c_afbifpn_forward, fuse)
# the tensor() factory stays in its submodule: re-exporting it here would
# shadow the cafbifpn.tensor module attribute with a function
from .tensor import Node, Rng, Tape, Tensor, full, zeros
from .tensorio import (RunConfig, config_parse, gen_fixture, load_backbone,
                       tensor_read, tensor_write)

__version__ = "0.1.0"

# The check routes are loaded on first use, so that importing the package
# (and running a forward) does not compile them.
_LAZY = {"run_gradcheck": "gradcheck", "run_selfcheck": "selfcheck",
         "attention_flops": "oracles"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "BraParams", "RoutingResult", "ba_forward", "make_bra_params",
    "CfeParams", "cfe_forward", "cfe_receptive_probe", "make_cfe_params",
    "Conv2dParams", "DeformableParams", "conv2d", "deformable_conv2d",
    "deformable_conv2d_with_offsets",
    "ConfigError", "FormatError", "GraphError", "KernelError",
    "NumericError", "PartitionError", "PipelineError", "ShapeError",
    "run_gradcheck",
    "count_macs",
    "attention_flops",
    "FusionWeights", "PipelineParams", "afbifpn_forward",
    "build_pipeline_params", "c_afbifpn_forward", "fuse",
    "run_selfcheck",
    "Node", "Rng", "Tape", "Tensor", "full", "zeros",
    "RunConfig", "config_parse", "gen_fixture", "load_backbone",
    "tensor_read", "tensor_write",
    "__version__",
]
