"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
data/checkpoint mismatches exit 3, numeric failures (NaN/overflow) exit 4.
An ``OSError`` that reaches the CLI, a file it cannot write, exits 2 too.
ShapeError and GraphError are mapped to none: validated input cannot raise
them, so they signal a program fault and end the CLI with a traceback.
"""


class PkgeError(Exception):
    pass


class ShapeError(PkgeError, ValueError):
    """Tensor/operand dimensions disagree."""


class ConfigError(PkgeError, ValueError):
    """Invalid hyperparameter or run configuration."""


class DataFormatError(PkgeError, ValueError):
    """Malformed dataset file."""


class GraphError(PkgeError, RuntimeError):
    """Misuse of the autodiff graph (e.g. backward on a non-scalar)."""


class NumericError(PkgeError, ArithmeticError):
    """Non-finite value produced where finite math was required."""


class CheckpointError(PkgeError, RuntimeError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


class VocabMismatchError(CheckpointError):
    """Checkpoint tensor sizes disagree with the supplied dataset."""
