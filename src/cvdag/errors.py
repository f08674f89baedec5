"""Exception hierarchy shared across the toolkit, the argument rules, and
the one file I/O rule.

Exit codes are part of the CLI contract: 0 success, 1 validation/parse,
2 numerical degeneracy, 3 I/O. Every file the package reads or writes for a
caller goes through :func:`read_text` or :func:`write_text`, so the library
readers and writers raise the same typed errors as the CLI. Every argument
type check goes through :func:`_instance`, every sequence through :func:`_sequence`,
every integer through :func:`_count_problem`, every real number (one float64 holds)
through :func:`_not_real` and every named option through :func:`_choice_problem`.
"""

import numbers
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


def _instance(value, stage: str, *kinds: type):
    """``value`` where it is one of ``kinds``; ValidationError opened by
    ``stage`` otherwise, such as "cfg must be a LearnConfig, got str"."""
    if isinstance(value, kinds):
        return value
    # numpy 2 names np.bool_ "bool", so a name is given once
    names = " or ".join(dict.fromkeys(kind.__name__ for kind in kinds))
    article = "an" if names[0] in "AEIOU" else "a"
    raise ValidationError(f"{stage} {article} {names}, got {type(value).__name__}")


def _sequence(value, name: str) -> tuple:
    """``value`` as a tuple; ValidationError naming ``name`` where it is not
    iterable, or is a str or bytes, whose items would be its characters."""
    if not isinstance(value, (str, bytes)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be a sequence, got {type(value).__name__}")


def _is_int(x) -> bool:
    """True for an int or numpy integer, False for a bool or anything else."""
    # the type test first: an isinstance check against the ABC costs ten times as much
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def _count_problem(value, name: str, least: float = 0) -> str | None:
    """The problem with ``value`` as the integer ``name`` of at least ``least``, or None."""
    if _is_int(value) and value >= least:
        return None
    if not least:
        return f"{name} must be a non-negative integer, got {value!r}"
    if not _is_int(value):
        return f"{name} must be an integer, got {value!r}"
    return f"{name} must be >= {least}, got {value}"


def _not_real(value, name: str) -> str | None:
    """The problem with ``value`` as a real ``name`` that float64 holds (not a bool), or None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return f"{name} must be a real number, got {value!r}"
    try:
        float(value)
    except OverflowError:
        return f"{name} is too large for float64"
    return None


def _choice_problem(value, name: str, choices) -> str | None:
    """The problem with ``value`` as the option ``name``, a str in ``choices``, or None."""
    if isinstance(value, str):
        return None if value in choices else f"unknown {name} {value!r}"
    return f"{name} must be a string, got {value!r}"


def _path(path) -> Path:
    """``path`` as a Path; ValidationError naming its type where it is neither
    a str nor an os.PathLike, where Path would raise a bare TypeError."""
    try:
        return Path(path)
    except TypeError:
        raise ValidationError(
            f"path must be a str or os.PathLike, got {type(path).__name__}"
        ) from None


def read_text(path) -> str:
    """The UTF-8 text of ``path`` without one leading byte-order mark, which
    Notepad and Excel write; a failed read is ReportIOError, undecodable text
    DataFormatError naming the file's byte offset."""
    path = _path(path)
    try:
        return path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise ReportIOError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: not {exc.encoding} text at byte {exc.start} ({exc.reason})"
        ) from None


def _located(path, build, *args):
    """``build(*args)`` on values read from ``path``; a ValidationError it
    raises is a DataFormatError naming ``path``."""
    try:
        return build(*args)
    except ValidationError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def write_text(path, text: str) -> Path:
    """Write ``text`` to ``path`` as UTF-8; a failed write is ReportIOError naming its directory."""
    path = _path(path)
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ReportIOError(f"cannot write under {path.parent}: {exc}") from exc
    return path


def write_files(outdir, files: dict[str, str]) -> list[Path]:
    """Create ``outdir`` and write each named text into it, in order."""
    outdir = _path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ReportIOError(f"cannot write under {outdir}: {exc}") from exc
    return [write_text(outdir / name, text) for name, text in files.items()]
