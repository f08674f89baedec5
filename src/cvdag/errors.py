"""Exception hierarchy shared across the toolkit, and the one file I/O rule.

Exit codes are part of the CLI contract: 0 success, 1 validation/parse,
2 numerical degeneracy, 3 I/O. Every file the package reads or writes for a
caller goes through :func:`read_text` or :func:`write_text`, so the library
readers and writers raise the same typed errors as the CLI.
"""

from pathlib import Path


class ToolkitError(Exception):
    """Base class for all errors raised deliberately by this package."""

    exit_code = 1


class ValidationError(ToolkitError):
    """Bad arguments, malformed configuration, or violated preconditions."""


class DataFormatError(ValidationError):
    """A file could not be parsed; the message names the offending location."""


class InsufficientSamplesError(ValidationError):
    """Too few rows for the requested estimate or test."""


class NumericalDegeneracyError(ToolkitError):
    """A matrix required to be positive definite is not, beyond repair."""

    exit_code = 2


class DegenerateDesignError(NumericalDegeneracyError):
    """A design column has no variation, or a residual vanished."""


class ReportIOError(ToolkitError):
    """Failed to read or write a file; the message names the path."""

    exit_code = 3


def read_text(path) -> str:
    """The text of ``path``; a failed read is ReportIOError, undecodable text DataFormatError."""
    path = Path(path)
    try:
        return path.read_text()
    except OSError as exc:
        raise ReportIOError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: not {exc.encoding} text at byte {exc.start} ({exc.reason})"
        ) from None


def write_text(path, text: str) -> Path:
    """Write ``text`` to ``path``; a failed write is ReportIOError naming its directory."""
    path = Path(path)
    try:
        path.write_text(text)
    except OSError as exc:
        raise ReportIOError(f"cannot write under {path.parent}: {exc}") from exc
    return path


def write_files(outdir, files: dict[str, str]) -> list[Path]:
    """Create ``outdir`` and write each named text into it, in order."""
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ReportIOError(f"cannot write under {outdir}: {exc}") from exc
    return [write_text(outdir / name, text) for name, text in files.items()]
