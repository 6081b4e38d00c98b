"""Verifiable numeric kernels for a feature-enhancement and
attention-fusion pyramid: multi-branch convolution blocks, regionally
routed attention, and weighted bidirectional feature fusion, all built on
an explicit reverse-mode tape and checked against independent oracles.
"""

from .attention import (BraParams, RegionTokens, RoutingResult, ba_forward,
                        compute_routing, make_bra_params)
from .cfe import CfeParams, cfe_forward, cfe_receptive_probe, make_cfe_params
from .convops import (Conv2dParams, DeformableParams, conv2d,
                      deformable_conv2d, deformable_conv2d_with_offsets,
                      depthwise_conv2d)
from .errors import (ConfigError, FormatError, GraphError, KernelError,
                     NumericError, PartitionError, PipelineError, ShapeError)
from .gradcheck import run_gradcheck
from .instrumentation import count_macs
from .oracles import (attention_flops, conv2d_reference,
                      dense_attention_reference, finite_diff_grad,
                      topk_reference)
from .pipeline import (FusionWeights, PipelineParams, afbifpn_forward,
                       build_pipeline_params, c_afbifpn_forward, fuse, resize)
from .selfcheck import run_selfcheck
# the tensor() factory stays in its submodule: re-exporting it here would
# shadow the cafbifpn.tensor module attribute with a function
from .tensor import Node, Rng, Tape, Tensor, from_flat, full, zeros
from .tensorio import (RunConfig, config_parse, gen_fixture, load_backbone,
                       tensor_read, tensor_write)

__version__ = "0.1.0"

__all__ = [
    "BraParams", "RegionTokens", "RoutingResult", "ba_forward",
    "compute_routing", "make_bra_params",
    "CfeParams", "cfe_forward", "cfe_receptive_probe", "make_cfe_params",
    "Conv2dParams", "DeformableParams", "conv2d", "deformable_conv2d",
    "deformable_conv2d_with_offsets", "depthwise_conv2d",
    "ConfigError", "FormatError", "GraphError", "KernelError",
    "NumericError", "PartitionError", "PipelineError", "ShapeError",
    "run_gradcheck",
    "count_macs",
    "attention_flops", "conv2d_reference", "dense_attention_reference",
    "finite_diff_grad", "topk_reference",
    "FusionWeights", "PipelineParams", "afbifpn_forward",
    "build_pipeline_params", "c_afbifpn_forward", "fuse", "resize",
    "run_selfcheck",
    "Node", "Rng", "Tape", "Tensor", "from_flat", "full", "zeros",
    "RunConfig", "config_parse", "gen_fixture", "load_backbone",
    "tensor_read", "tensor_write",
    "__version__",
]
