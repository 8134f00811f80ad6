"""Error taxonomy shared by all modules.

The CLI maps these onto stable exit codes: configuration and input
problems exit 1, data and integrity problems exit 2, failed benchmark
assertions exit 3.
"""


class KVFuseError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(KVFuseError):
    """Invalid model, policy, or benchmark configuration."""


class InputError(KVFuseError):
    """Caller-supplied data violates a precondition (bad ids, empty spans)."""


class ShapeError(KVFuseError):
    """Tensor arguments disagree on head count or dimensions."""


class ContractViolation(KVFuseError):
    """An operation was invoked outside its stated state contract."""


class ChunkNotFoundError(KVFuseError):
    """Requested chunk id has no file in the store."""


class IntegrityError(KVFuseError):
    """Stored chunk bytes fail magic, version, or checksum validation."""


class FingerprintError(KVFuseError):
    """Chunks built against different model configurations were mixed, or
    a chunk's shape does not fit the model it is used with."""


class AssertionFailure(KVFuseError):
    """A hard assertion in a benchmark config's acceptance block failed."""
