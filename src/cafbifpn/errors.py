"""Exception types shared across the library."""


class KernelError(Exception):
    """Base class for every library-specific failure."""


class ShapeError(KernelError):
    """Operand extents or ranks are incompatible with the operation."""


class PipelineError(KernelError):
    """A fusion-graph node received inconsistent or missing inputs."""


class ConfigError(KernelError):
    """A configuration value violates a documented constraint."""


class PartitionError(ConfigError):
    """A feature map cannot be tiled into the configured region grid."""


class NumericError(KernelError):
    """Non-finite values or otherwise invalid numerics were encountered."""


class GraphError(KernelError):
    """A tape operation referenced a node the tape does not own."""


class FormatError(KernelError):
    """A serialized tensor file is malformed, or the input maps hold values
    or extents the computation cannot take (NaN or infinity, a missing
    level, extents that do not halve per level)."""
