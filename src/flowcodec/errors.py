"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 1,
DataError (and subclasses) -> 2, DivergenceError -> 3.
"""


class FlowcodecError(Exception):
    pass


class ConfigError(FlowcodecError):
    """Bad configuration or unusable argument values."""


class DataError(FlowcodecError):
    """Problems with input data or on-disk artifacts."""


class SchemaError(DataError):
    """A required column is missing or the schema itself is inconsistent."""


class RowParseError(DataError):
    """A data row could not be parsed; message carries row number and column."""


class EmptyDatasetError(DataError):
    """The input contains no data rows."""


class ModelFormatError(DataError):
    """A serialized model/preprocessor file is corrupt or has the wrong version."""


class FingerprintMismatchError(DataError):
    """The model or the container was made with another preprocessor than the
    one supplied."""


class DivergenceError(FlowcodecError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"non-finite loss at epoch {epoch}")
