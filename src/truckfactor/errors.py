"""Exception types shared across the package."""


class TruckFactorError(Exception):
    """Base class for every error this package raises deliberately."""


class NotARepository(TruckFactorError):
    """The given path is not inside a Git repository."""


class PartialClone(TruckFactorError):
    """The repository is a partial clone that lacks objects git needs, and
    fetching them is not allowed."""


class EmptyRepository(TruckFactorError):
    """The repository exists but has no commits to analyze."""


class GitInvocationFailed(TruckFactorError):
    """A git subprocess exited with a non-zero status."""

    def __init__(self, command: str, stderr: str = ""):
        self.command = command
        self.stderr = stderr
        detail = f": {stderr}" if stderr else ""
        super().__init__(f"{command} failed{detail}")


class BlameFailed(TruckFactorError):
    """git blame could not produce a ranking for a file."""
