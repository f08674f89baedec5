"""Delimited dataset files and the bundled examination-marks fixture.

Files carry a mandatory header row of variable names; the delimiter (comma or
whitespace) is auto-detected from that header. Values are written with 17
significant digits so a write/read round-trip is lossless.

Parsing has two paths. Well-formed text is read by numpy's C reader
(``np.loadtxt`` over the lines below the header), which converts with the same
correctly rounded routine as ``float()``. Text it refuses, or whose result
``Dataset`` refuses (no rows, the wrong width, repeated names or a non-finite
value), goes to a line scan with ``float()``, the reference. The scan accepts
what ``float()`` accepts (digit underscores, non-ASCII digits) and names the
line of the first fault, so accepted syntax and error messages do not depend
on the path taken.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .errors import DataFormatError, ValidationError, read_text, write_text
from .numerics import Dataset, _repeated_name


def _split(line: str, delimiter: str | None) -> list[str]:
    if delimiter == ",":
        return [f.strip() for f in line.split(",")]
    return line.split()


def _require_finite(rows, linenos: list[int], where: str) -> None:
    """Raise for the first row of ``rows`` that holds a NaN or an infinity."""
    bad = ~np.isfinite(np.asarray(rows, dtype=float)).all(axis=-1)
    if bad.any():
        raise DataFormatError(
            f"{where}:{linenos[int(np.argmax(bad))]}: missing/non-finite value;"
            " rows are not imputed"
        )


def parse_dataset(text: str, where: str = "<string>") -> Dataset:
    lines = text.splitlines()
    h = next((i for i, ln in enumerate(lines) if ln.strip()), len(lines))
    body = lines[h + 1:]
    # np.loadtxt warns on a body without data; the scan raises for it instead
    if any(ln.strip() for ln in body):
        head = lines[h].strip()
        delimiter = "," if "," in head else None
        names = _split(head, delimiter)
        try:
            # a list of lines, not a StringIO copy; comments=None keeps "#" an error
            data = np.loadtxt(body, dtype=float, delimiter=delimiter, comments=None, ndmin=2)
            # Dataset holds the rules on rows, width, names and values; text
            # that breaks one goes to the scan, which names the line at fault
            if all(names):
                return Dataset(tuple(names), data)
        except (ValueError, ValidationError):
            pass
    return _scan_dataset(text, where)


def _scan_dataset(text: str, where: str) -> Dataset:
    """Line-by-line ``float()`` parse: the reference, and the path for refused text."""
    stripped = [(i + 1, s) for i, ln in enumerate(text.splitlines()) if (s := ln.strip())]
    if not stripped:
        raise DataFormatError(f"{where}: empty file, expected a header row")
    head_no, head = stripped[0]
    delimiter = "," if "," in head else None
    names = _split(head, delimiter)
    if any(not n for n in names):
        raise DataFormatError(f"{where}:{head_no}: empty column name in header")
    if (repeat := _repeated_name(names)) is not None:
        raise DataFormatError(f"{where}:{head_no}: header has {repeat}")
    linenos = [lineno for lineno, _ in stripped[1:]]
    rows = []
    # float() ignores the whitespace around a field, so fields are not stripped;
    # a fault is reported only after the rows above it pass the finiteness check
    for lineno, line in stripped[1:]:
        fields = line.split(delimiter)
        if len(fields) != len(names):
            _require_finite(rows, linenos, where)
            raise DataFormatError(
                f"{where}:{lineno}: expected {len(names)} fields, got {len(fields)}"
            )
        try:
            rows.append(list(map(float, fields)))
        except ValueError:
            _require_finite(rows, linenos, where)
            raise DataFormatError(f"{where}:{lineno}: non-numeric value in {line!r}") from None
    if not rows:
        raise ValidationError(f"{where}: no data rows below the header")
    data = np.array(rows, dtype=float)
    _require_finite(data, linenos, where)
    return Dataset(tuple(names), data)


def read_dataset(path) -> Dataset:
    return parse_dataset(read_text(path), where=str(path))


def _header(names: tuple[str, ...]) -> str:
    """The header row of ``names``; ValidationError names the first column
    that :func:`parse_dataset` would not read back from it as it is."""
    header = ",".join(names)
    fields = _split(header, "," if "," in header else None)
    for j, name in enumerate(names):
        if fields[j:j + 1] != [name] or len(name.splitlines()) != 1:
            raise ValidationError(
                f"column {j} name {name!r} would not read back from the header row"
            )
    return header


def format_dataset(ds: Dataset) -> str:
    """CSV text of ``ds`` that :func:`parse_dataset` reads back as it is."""
    row = ",".join(["%.17g"] * ds.p)
    lines = [_header(ds.names)]
    lines.extend(row % tuple(values) for values in ds.data.tolist())
    return "\n".join(lines) + "\n"


def write_dataset(ds: Dataset, path) -> None:
    write_text(path, format_dataset(ds))


def load_marks() -> Dataset:
    """The classic 88-student, five-subject examination marks table."""
    text = resources.files("cvdag").joinpath("data/marks.csv").read_text()
    return parse_dataset(text, where="marks.csv")
