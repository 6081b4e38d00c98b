"""Exception types shared across the library."""


class KernelError(Exception):
    """Base class for every library-specific failure."""


class ShapeError(KernelError):
    """Operand extents or ranks are incompatible with the operation."""


class PartitionError(ShapeError):
    """A feature map cannot be tiled into the requested region grid."""


class PipelineError(KernelError):
    """A fusion-graph node received inconsistent or missing inputs."""


class ConfigError(KernelError):
    """A configuration value violates a documented constraint."""


class NumericError(KernelError):
    """Non-finite values or otherwise invalid numerics were encountered."""


class GraphError(KernelError):
    """A tape operation referenced a node the tape does not own."""


class FormatError(KernelError):
    """A serialized tensor file is malformed, or an input map holds values
    the computation cannot take (NaN or infinity)."""
