r"""Delimited dataset files and the bundled examination-marks fixture.

Files carry a mandatory header row of variable names; the delimiter (comma or
whitespace) is auto-detected from that header. Values are written with 17
significant digits so a write/read round-trip is lossless.

Writing gives the bytes of a per-value ``"%.17g"``. An exact array kernel
forms each value's correctly rounded 17 digits with uint64 arithmetic and lays
them out in ``%g`` fixed notation, chunk by chunk; the values it does not
cover (zero, subnormals, |x| < 1e-4, |x| >= 1e16) take ``"%.17g"`` one at a
time. A p=80, n=2000 table writes in about 34 ms, against 81 ms for a
per-value ``%`` over every row.

Parsing has two paths. An exact array kernel reads the text's bytes in
chunks of whole lines: it finds the end of each field, reads any exponent
after an "e" or "E" at its end, reads the 24 bytes before the exponent with
one record gather, as three uint64 words, forms their digits with SWAR
arithmetic (eight one-byte digits a word) and makes the correctly rounded
double by Eisel-Lemire, the same double ``float()`` gives. It reads text
whose first line is the header and where one byte follows each field: the
delimiter (a comma, or a space or tab), "\n", or the pair "\r\n"; a field it
cannot decide exactly (a "+" before its digits, over 19 significant digits or
24 bytes, a subnormal or infinite double) takes ``float()`` alone. A p=80,
n=2000 table parses in about 20 ms (median, 2-vCPU Xeon VM). Every other
text (padded fields, runs of spaces, blank lines, a header below a blank
line), and text whose result ``Dataset`` refuses (no rows, the wrong width,
repeated names or a non-finite value), goes to a line scan with ``float()``,
the reference; a p=80, n=2000 table with ", " separators parses there in
about 60 ms. The scan accepts what ``float()`` accepts (digit underscores,
non-ASCII digits) and names the line of the first fault, so values, accepted
syntax and error messages do not depend on the path taken.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import DataFormatError, ValidationError, _instance, read_text, write_text
from .numerics import Dataset, _repeated_name


def _split(line: str, delimiter: str | None) -> list[str]:
    if delimiter == ",":
        return [f.strip() for f in line.split(",")]
    return line.split()


def parse_dataset(text: str, where: str = "<string>") -> Dataset:
    _instance(text, "dataset text needs", str)
    return _read_table(text) or _scan_dataset(text, where)


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
    rows = []
    # each row is checked as it is read, so the first fault in line order is
    # named; float() ignores the whitespace around a field, so fields are not
    # stripped
    for lineno, line in stripped[1:]:
        fields = line.split(delimiter)
        if len(fields) != len(names):
            raise DataFormatError(
                f"{where}:{lineno}: expected {len(names)} fields, got {len(fields)}"
            )
        try:
            rows.append(list(map(float, fields)))
        except ValueError:
            raise DataFormatError(f"{where}:{lineno}: non-numeric value in {line!r}") from None
        if not all(map(math.isfinite, rows[-1])):
            raise DataFormatError(
                f"{where}:{lineno}: missing/non-finite value; rows are not imputed"
            )
    if not rows:
        raise ValidationError(f"{where}: no data rows below the header")
    return Dataset(tuple(names), np.array(rows, dtype=float))


def read_dataset(path) -> Dataset:
    return parse_dataset(read_text(path), where=str(path))


def _header(names: tuple[str, ...]) -> str:
    """The header row of ``names``; ValidationError names the first column
    that :func:`read_dataset` would not read back from it as it is, such as a
    first name opening with the byte-order mark that the reader drops."""
    header = ",".join(names)
    fields = _split(header.removeprefix("\ufeff"), "," if "," in header else None)
    for j, name in enumerate(names):
        if fields[j:j + 1] != [name] or len(name.splitlines()) != 1:
            raise ValidationError(
                f"column {j} name {name!r} would not read back from the header row"
            )
    return header


def format_dataset(ds: Dataset) -> str:
    """CSV text of ``ds`` that :func:`parse_dataset` reads back as it is."""
    values = _instance(ds, "CSV text needs", Dataset).data.reshape(-1)
    chunks = (_format_chunk(values[start:start + _CHUNK], start, ds.p)
              for start in range(0, values.size, _CHUNK))
    return "".join([_header(ds.names) + "\n", *chunks])


# x = m * 2**e (m its 53-bit mantissa) with decimal exponent k has the correctly
# rounded 17-digit significand D = round(m * 5**s * 2**(e + s)), s = 16 - k; the
# kernel forms it exactly in two uint64 limbs where the right shift -(e + s) is
# 1..63 bits, and "%.17g" writes every other value
_CHUNK = 1 << 14
_U1, _U32, _U64 = np.uint64(1), np.uint64(32), np.uint64(64)
_LOW = np.uint64(0xFFFFFFFF)
_E8 = np.uint64(10 ** 8)
_D16, _D17 = np.uint64(10 ** 16), np.uint64(10 ** 17)
_POW5 = np.array([5 ** s for s in range(22)], dtype=np.uint64)
# one value's row of bytes: sign, the "0.000" of |x| < 1, a spare byte, the 17
# digits of D from _A, a point, the digits again from _B, the separator and a
# spare byte; a template keeps the bytes of one value's text, in row order, and
# the uint16 digit pairs start at even columns
_ROW = np.frombuffer(b"-0.000 " + b"0" * 17 + b"." + b"0" * 17 + b", ", np.uint8)
_A, _POINT, _B, _SEP = 7, 24, 25, 42
# the two ASCII digits of 0..99, each pair read as one uint16
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)


def _product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low uint64 limbs of a * b."""
    al, ah, bl, bh = a & _LOW, a >> _U32, b & _LOW, b >> _U32
    ll, lh, hl = al * bl, al * bh, ah * bl
    mid = (ll >> _U32) + (lh & _LOW) + (hl & _LOW)
    return ah * bh + (lh >> _U32) + (hl >> _U32) + (mid >> _U32), a * b


def _significand(m: np.ndarray, e: np.ndarray, k: np.ndarray):
    """floor(m * 2**e * 10**(16 - k)), the same rounded half to even, and
    where the right shift that takes them is 1..63 bits."""
    s = 16 - k
    shift = -(e + s)
    ok = (shift >= 1) & (shift <= 63)
    hi, lo = _product(m, _POW5.take(s, mode="clip"))
    r = np.where(ok, shift, 1).astype(np.uint64)
    floor = (lo >> r) | (hi << (_U64 - r))
    rest, half = lo & ((_U1 << r) - _U1), _U1 << (r - _U1)
    up = (rest > half) | ((rest == half) & (floor & _U1).astype(bool))
    return floor, floor + up, ok


@lru_cache(maxsize=None)
def _templates() -> np.ndarray:
    """For each (sign, k + 4, digit count - 1), the bytes of a row that make
    "%g" fixed notation of D * 10**(k - 16), trailing zeros stripped, and the
    separator: sign, integer part, point and fraction or "0." and zeros."""
    keep = np.zeros((2, 20, 17, _ROW.size), dtype=bool)
    for neg, k, digits in itertools.product(range(2), range(-4, 16), range(1, 18)):
        row = keep[neg, k + 4, digits - 1]
        row[0] = neg
        if k >= 0:
            row[_A:_A + k + 1] = True
            row[_POINT] = digits > k + 1
            row[_B + k + 1:_B + digits] = True
        else:
            row[1:2 - k] = True
            row[_B:_B + digits] = True
        row[_SEP] = True
    keep.flags.writeable = False
    return keep.reshape(-1, _ROW.size)


def _format_chunk(x: np.ndarray, start: int, p: int) -> str:
    """The CSV text of the row-major values ``x``, the first of which is
    value ``start`` of a table with ``p`` columns."""
    bits = x.view(np.uint64)
    m = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    e = ((bits >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.int64) - 1075
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e16)
    k = np.floor(np.log10(np.where(fast, ax, 1.0))).astype(np.int64)
    floor, d, ok = _significand(m, e, k)
    # log10 is one off for some x near a power of ten
    fixed = k + (floor >= _D17) - (floor < _D16)
    redo = (fast & (fixed != k)).nonzero()[0]
    if redo.size:
        k[redo] = fixed[redo]
        _, d[redo], ok[redo] = _significand(m[redo], e[redo], k[redo])
    # D = 10**17 would be x rounded up to a power of ten, which no double in
    # the kernel's range is; "%.17g" would write one
    fast &= ok & (d < _D17)

    row = np.empty((x.size, _ROW.size), dtype=np.uint8)
    row[:] = _ROW
    row[(p - 1 - start) % p::p, _SEP] = ord("\n")
    high = d // _E8
    lead = high // _E8
    row[:, _A] = lead.astype(np.uint8) + ord("0")
    wide = row.view(np.uint16)
    for col, eight in ((_A + 1, high - lead * _E8), (_A + 9, d - high * _E8)):
        eight = eight.astype(np.uint32)
        upper = eight // np.uint32(10 ** 4)
        for c, four in ((col, upper), (col + 4, eight - upper * np.uint32(10 ** 4))):
            hundreds = four // np.uint32(100)
            wide[:, c // 2] = _PAIRS[hundreds]
            wide[:, c // 2 + 1] = _PAIRS[four - hundreds * np.uint32(100)]
    row[:, _B:_B + 17] = row[:, _A:_A + 17]
    digits = 17 - np.argmax(row[:, _B + 16:_B - 1:-1] != ord("0"), axis=1)

    t = np.where(fast, (np.signbit(x) * 20 + k + 4) * 17 + digits - 1, 0)
    keep = np.take(_templates(), t, axis=0)
    for i in (~fast).nonzero()[0]:
        text = np.frombuffer(b"%.17g" % x[i], np.uint8)
        row[i, :text.size] = text
        keep[i, :_SEP] = np.arange(_SEP) < text.size
    return row[keep].tobytes().decode("ascii")


# The parse kernel reads text in chunks of whole lines. A field is a run of
# bytes other than space, tab, "\r", "\n" and ","; one of an optional leading
# "-", digits with at most one "." that fit 24 bytes, and an optional exponent
# ("e" or "E" and at most four bytes of sign and digits) is the decimal
# M * 10**q. Where M < 10**19 and q = -342..308, Eisel-Lemire (Lemire, "Number
# Parsing at a Gigabyte per Second", 2021) gives its correctly rounded double
# from one 64 x 128-bit product of M and 10**q; "float()" reads every other
# field, and any one where the product cannot decide the rounding or the
# double is subnormal or infinite
_PARSE_CHUNK = 1 << 18
_FIELD = 24  # bytes of a field's row: three little-endian uint64 words
_U8, _U9, _U52, _U56, _U63 = (np.uint64(i) for i in (8, 9, 52, 56, 63))
_BYTES = np.uint64(0x0101010101010101)
_HIGH, _ZERO = _BYTES * np.uint64(0x80), _BYTES * np.uint64(ord("0"))
_DIGIT = _BYTES * np.uint64(0x80 - 10)  # a byte above 9 carries into its top bit
_LOW9 = np.uint64(2 ** 9 - 1)
# _LEAD[j, c]: word j of a row with its bytes in columns below c set
_LEAD = np.array([[(1 << 8 * min(max(c - 8 * j, 0), 8)) - 1 for c in range(_FIELD + 1)]
                  for j in range(3)], dtype=np.uint64)
_KEEP = ~_LEAD
# the shift that takes the top bit of byte i of word j to bit 8i + j
_TOP = np.array([[7], [6], [5]], dtype=np.uint64)
# "e" and "E" XOR "0", each with its 0x20 bit set, and the bytes 3..6 of a
# word, where the "e" of an exponent of one to four bytes stands
_E, _LOW7 = _BYTES * np.uint64(0x75), _BYTES * np.uint64(0x7F)
_E_AT = np.uint64(0x80808080 << 24)
_Q = range(-342, 309)  # the powers of ten of the table


def _read_table(text: str) -> Dataset | None:
    """The kernel's Dataset of ``text``, or None where the scan reads it: a
    header that is not the first line, a body layout :func:`_fields` does not
    read, a field ``float()`` refuses, or a table ``Dataset`` refuses."""
    try:
        raw = text.encode()
    except UnicodeEncodeError:
        return None
    # the header is the first line; a line break other than "\n" or "\r\n"
    # in it would split the lines differently
    start = raw.find(b"\n") + 1
    if not start:
        return None
    line = raw[:start - 1].decode().removesuffix("\r")
    if line.splitlines() != [line] or not (head := line.strip()):
        return None
    delimiter = "," if "," in head else None
    names = _split(head, delimiter)
    size = len(raw)
    if not all(names) or start == size or size < _FIELD:
        return None
    data = np.frombuffer(raw, np.uint8)
    # the 24 bytes at each byte: three little-endian uint64 words
    records = np.ndarray((size - _FIELD + 1,), f"V{_FIELD}", raw, strides=(1,))
    chunks = []
    while start < size:
        end = (raw.rfind(b"\n", start, start + _PARSE_CHUNK) + 1
               or raw.find(b"\n", start + _PARSE_CHUNK) + 1 or size)
        lines = data[start:end] if raw[end - 1] == 10 else np.append(data[start:end], np.uint8(10))
        exponents = raw.find(b"e", start, end) >= 0 or raw.find(b"E", start, end) >= 0
        values = _parse_chunk(data, records, lines, start, len(names), delimiter, exponents)
        if values is None:
            return None
        chunks.append(values)
        start = end
    try:
        return Dataset._fresh(tuple(names), np.concatenate(chunks).reshape(-1, len(names)))
    except ValidationError:
        return None


def _fields(lines: np.ndarray, p: int, delimiter: str | None):
    r"""The first and end byte of each field of ``lines``, whole lines ending
    in "\n", in row order; None unless each line is p fields and one byte
    follows each field: ``delimiter`` (a comma, or a space or tab where it is
    None), "\n", or the pair "\r\n"."""
    gap = (lines <= 32) | (lines == 44)
    # a field ends at a gap byte after a field byte
    end = np.greater(gap[1:], gap[:-1]).nonzero()[0] + 1
    gaps = np.count_nonzero(gap)
    cr = np.count_nonzero(lines == 13) if gaps > end.size else 0
    # the only gap bytes are the ends and the "\n" of each "\r\n"
    if gap[0] or gaps != end.size + cr:
        return None
    sep = lines[end]
    crlf = sep == 13
    first = np.empty_like(end)
    first[0] = 0
    np.add(end[:-1], 1 + crlf[:-1], out=first[1:])
    ends_line = (sep == 10) | crlf
    if cr != np.count_nonzero(crlf) or (lines[end[crlf] + 1] != 10).any() or not (
            ends_line | (sep == 44 if delimiter else (sep == 32) | (sep == 9))).all():
        return None
    n = first.size
    if n % p or np.count_nonzero(ends_line) != n // p or not ends_line[p - 1::p].all():
        return None
    return first, end


def _parse_chunk(data: np.ndarray, records: np.ndarray, lines: np.ndarray, start: int,
                 p: int, delimiter: str | None, exponents: bool) -> np.ndarray | None:
    r"""The values of ``lines``, whole lines from byte ``start`` of the text
    bytes ``data`` ending in "\n", with ``records[i]`` the 24 bytes at byte i
    and ``exponents`` false where the lines hold no "e" or "E"; None where the
    lines are not p fields each or ``float()`` refuses a field."""
    fields = _fields(lines, p, delimiter)
    if fields is None:
        return None
    first, end = fields[0] + start, fields[1] + start
    neg = data[first] == 45
    s, e, power = first + neg, end, 0
    if exponents:
        # a field may end in an exponent, which moves the point of the digits
        # before it; the last word of the record before its end holds it (a
        # field ending before byte 24 is not fast, whatever this reads)
        size, power = _exponents(records[np.maximum(end - _FIELD, 0)].view("<u8")[2::3])
        e = end - size
    x, plain, point = _digit_rows(data, records, s, e)
    length = e - s
    # the kernel reads a field with a digit whose row holds it whole
    fast = plain & (length - (point >= 0) >= 1) & (length <= _FIELD) & (e >= _FIELD)
    # the point leaves its column to the digits before it
    shifted = x << _U8
    shifted[1:] |= x[:-1] >> _U56
    shifted ^= x
    shifted &= _LEAD.take(point + 1, axis=1)
    x ^= shifted
    top, middle, bottom = _eight_digits(x)
    fast &= top < np.uint64(1000)
    m = top * _D16 + middle * _E8 + bottom
    zero = m == np.uint64(0)
    bits, decided = _decimal_bits(m | zero, power - np.where(point < 0, 0, _FIELD - 1 - point))
    bits[zero] = 0
    bits |= neg.astype(np.uint64) << _U63
    fast &= decided
    values = bits.view(np.float64)
    for i in (~fast).nonzero()[0]:
        try:
            values[i] = float(data[first[i]:end[i]].tobytes())
        except ValueError:
            return None
    return values


def _digit_rows(data: np.ndarray, records: np.ndarray, s: np.ndarray, e: np.ndarray):
    """The rows of the digits from byte s to byte e: a (3, k) array whose
    row j holds word j of the 24 bytes before each field's e, XOR "0", so
    that digits read 0..9 and the bytes before s read 0; whether the digits
    hold at most one byte that is not a digit, a point; and the column of that
    byte, -1 where there is none."""
    row, lead = np.maximum(e - _FIELD, 0), _FIELD - (e - s)
    x = np.bitwise_xor(records[row].view("<u8").reshape(-1, 3).T, _ZERO, order="C")
    x &= _KEEP.take(lead, axis=1, mode="clip")
    # one bit for each byte that is not a digit: bit 8i + j for column 8j + i
    other = ((x + _DIGIT | x) & _HIGH) >> _TOP
    other = other[0] | other[1] | other[2]
    bit = (other.astype(np.float64).view(np.uint64) >> _U52).astype(np.int64) - 1023
    point = np.where(other != 0, 8 * (bit & 7) + (bit >> 3), -1)
    plain = (((other & (other - _U1)) == 0)
             & ((other == 0) | (data.take(row + point, mode="clip") == 46)))
    return x, plain, point


def _exponents(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the eight bytes up to each field's end, the bytes of the exponent
    the field ends in, its "e" included, and its value; 0 bytes where it ends
    in none. A separator before a field stands between any "e" outside it and
    its end."""
    w = w ^ _ZERO
    t = (w | _BYTES * np.uint64(0x20)) ^ _E
    # the top bit of each byte of t that is zero, an "e" or "E"
    at = ~((t & _LOW7) + _LOW7 | t) & _E_AT
    # the byte of the last "e"; a word's float is exact up to its top bit
    i = np.where(at != 0, (at.astype(np.float64).view(np.uint64) >> _U52).astype(np.int64)
                 - 1023 >> 3, 6)
    sign = w >> (8 * i + 8).astype(np.uint64) & np.uint64(0xFF)
    minus = sign == np.uint64(ord("-") ^ ord("0"))
    signed = minus | (sign == np.uint64(ord("+") ^ ord("0")))
    # the digits after the "e" and sign, the bytes before them read as 0
    digits = w & _KEEP[2].take(17 + i + signed)
    ok = (at != 0) & (i + signed < 7) & ((digits + _DIGIT | digits) & _HIGH == np.uint64(0))
    value = np.where(ok, _eight_digits(digits).astype(np.int64), 0)
    return np.where(ok, 8 - i, 0), np.where(minus, -value, value)


def _eight_digits(x: np.ndarray) -> np.ndarray:
    """The number that the eight one-byte digits of each word of ``x`` make,
    its first digit in the lowest byte."""
    x = (x * np.uint64(10 << 8 | 1)) >> _U8 & np.uint64(0x00FF00FF00FF00FF)
    x = (x * np.uint64(100 << 16 | 1)) >> np.uint64(16) & np.uint64(0x0000FFFF0000FFFF)
    return (x * np.uint64(10000 << 32 | 1)) >> _U32


def _powers() -> tuple[np.ndarray, ...]:
    """For each q of _Q, the high and low words of 5**q scaled into
    [2**127, 2**128), as fast_float rounds them (up for q = -27..-1, down
    otherwise), and the float64 exponent field, less one and modulo 2**64, of
    M * 10**q for M scaled into [2**63, 2**64) whose product with the high
    word has its top bit set."""
    table = []
    for q in _Q:
        five = 5 ** abs(q)
        z = five.bit_length()
        if q >= 0:
            c = five << 128 - z if z <= 128 else five >> z - 128
        elif q >= -27:
            c = (1 << z + 127) // five + 1
        else:
            c = (1 << 2 * z + 128) // five + 1
            c >>= c.bit_length() - 128
        table.append((c >> 64, c, (217706 * q >> 16) + 1085))
    return tuple(np.array([v & (1 << 64) - 1 for v in column], dtype=np.uint64)
                 for column in zip(*table))


_POWERS = _powers()


def _decimal_bits(m: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float64 bits of m * 10**q, for 0 < m < 10**19, and whether the
    product decides them: q in _Q and a normal double. Below _Q, m * 10**q is
    subnormal; above it, the table would give a wrong double."""
    high, low, exponent = _POWERS
    at = q - _Q.start
    decided = q < _Q.stop
    # m shifted so that its top bit is set; the float of m may round up to a
    # power of two, which leaves it one bit short
    lz = np.uint64(1086) - (m.astype(np.float64).view(np.uint64) >> _U52)
    w = m << lz
    short = (w >> _U63) ^ _U1
    w <<= short
    lz += short
    hi, lo = _product(w, high.take(at, mode="clip"))
    # the low word of the power can carry into the bits that round
    near = ((hi & _LOW9) == _LOW9).nonzero()[0]
    if near.size:
        carry = _product(w[near], low.take(at[near], mode="clip"))[0]
        total = lo[near] + carry
        hi[near] += (total < carry).astype(np.uint64)
        lo[near] = total
        decided[near[total == ~np.uint64(0)]] = False
    upper = hi >> _U63
    mant = hi >> (upper + _U9)
    # a product that drops only zero bits is a tie between two doubles, which
    # rounds to even; outside 10**-4..10**23 the power has no exact tie
    tie = (lo <= _U1).nonzero()[0]
    tie = tie[(q[tie] >= -4) & (q[tie] <= 23) & (mant[tie] & np.uint64(3) == _U1)
              & (mant[tie] << upper[tie] + _U9 == hi[tie])]
    mant[tie] -= _U1
    mant += mant & _U1
    mant >>= _U1
    # a normal double has an exponent field, less one, of 0..2045; one below
    # 0 wraps past 2045. A mantissa rounded up to 2**53 carries into the
    # field, and from 2045 makes inf, which is how float() rounds it too
    field = exponent.take(at, mode="clip") + upper - lz
    decided &= field < np.uint64(2046)
    return mant + (field << _U52), decided


def write_dataset(ds: Dataset, path) -> None:
    write_text(path, format_dataset(ds))


def load_marks() -> Dataset:
    """The classic 88-student, five-subject examination marks table."""
    text = resources.files("cvdag").joinpath("data/marks.csv").read_text(encoding="utf-8")
    return parse_dataset(text, where="marks.csv")
