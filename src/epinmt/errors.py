"""The three ways a command fails, one per exit code: `cli.main` prints an
error's prefix and message and exits with its code. Config validation also
turns a ValueError of a config class into a UsageError."""


class UsageError(Exception):
    """The command line or the config asks for something invalid (exit 1)."""
    exit_code, prefix = 1, "usage error"


class DataError(Exception):
    """The data cannot serve the request: too few pairs for a budget, a shard
    or the noise, or a stage file that is not current where it cannot be
    computed again (exit 2)."""
    exit_code, prefix = 2, "data error"


class InternalError(Exception):
    """An invariant is violated: incompatible shapes or lengths, a broken
    contract, a non-finite loss, or a process that died (exit 3)."""
    exit_code, prefix = 3, "internal error"
