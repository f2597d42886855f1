"""Exception types shared across the package."""

import re

# what a byte that is not UTF-8 reads as under errors="surrogateescape"
NOT_UTF8 = re.compile("[\udc80-\udcff]")


class IdealError(Exception):
    """Base class for all package errors."""


class UsageError(IdealError):
    """An operation was called with arguments that violate its contract."""


class InputShapeError(UsageError):
    """Vector/matrix dimensions do not compose."""


class ConfigError(IdealError):
    """Invalid or unknown configuration key/value."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


class DataError(IdealError):
    """Malformed or inconsistent dataset input."""


class NumericError(IdealError):
    """A non-finite value appeared where the computation requires finiteness."""
