"""Exception types shared across the package.

Each maps to a distinct process exit code in the command-line driver:
usage errors exit 2, resource-limit errors exit 3, verification errors exit 4.
"""


class UsageError(ValueError):
    """Malformed input: bad group spec, out-of-range index, unusable flag combo."""


class ResourceLimitError(RuntimeError):
    """Over a resource bound: the group-table cap, the stage cap or the relation-check budget."""


class VerificationError(AssertionError):
    """A structural invariant that must hold mathematically failed on concrete data."""


__all__ = ["UsageError", "ResourceLimitError", "VerificationError"]
