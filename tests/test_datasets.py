import math
import re
import warnings
from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN, Context, Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvdag import datasets
from cvdag.datasets import format_dataset, load_marks, parse_dataset, read_dataset, write_dataset
from cvdag.errors import DataFormatError, ToolkitError, ValidationError
from cvdag.numerics import Dataset, sample_covariance
from cvdag.sem import random_sem, sample


class TestParsing:
    def test_comma_delimited(self):
        ds = parse_dataset("a,b\n1,2\n3,4\n")
        assert ds.names == ("a", "b")
        assert np.array_equal(ds.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_whitespace_delimited(self):
        ds = parse_dataset("a b\n1 2\n3\t4\n")
        assert ds.names == ("a", "b")
        assert np.array_equal(ds.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_wrong_arity_names_line(self):
        with pytest.raises(DataFormatError, match=":3"):
            parse_dataset("a,b\n1,2\n1,2,3\n")

    def test_non_numeric_names_line(self):
        with pytest.raises(DataFormatError, match=":2"):
            parse_dataset("a,b\nx,2\n")

    def test_missing_value_rejected(self):
        with pytest.raises(DataFormatError):
            parse_dataset("a,b\n1,\n")
        with pytest.raises(DataFormatError):
            parse_dataset("a,b\n1,nan\n")

    def test_non_finite_names_line_counting_blank_lines(self):
        with pytest.raises(DataFormatError, match=":4"):
            parse_dataset("a,b\n1,2\n\n3,inf\n")

    @pytest.mark.parametrize("text, line", [
        ("a,b\n1,nan\n1,2\n1,2,3\n", ":2: missing"),
        ("a,b\n1,2\n1,2,3\n-inf,2\n", ":3: expected 2 fields"),
        ("a,b\ninf,1\nx,2\n", ":2: missing"),
        ("a,b\n1,2\ny,2\n1,nan\n", ":3: non-numeric"),
    ])
    def test_first_fault_is_reported(self, text, line):
        with pytest.raises(DataFormatError, match=line):
            parse_dataset(text)

    def test_spaces_around_comma_fields(self):
        spaced = parse_dataset("a , b\n 1.5 ,\t-2e3 \n3 , 4\n")
        plain = parse_dataset("a,b\n1.5,-2e3\n3,4\n")
        assert spaced.names == plain.names == ("a", "b")
        assert np.array_equal(spaced.data, plain.data)

    @pytest.mark.parametrize("text, error", [
        ("a,a\n1,2\n3,4\n", "<string>:1: header has repeated column name 'a' in columns 0 and 1"),
        ("\n x y z y\n1 2 3 4\n", "<string>:2: header has repeated column name 'y' in columns 1 and 3"),
        ("b,c,b,c\n1,2\n", "<string>:1: header has repeated column name 'b' in columns 0 and 2"),
    ])
    def test_repeated_name_names_header_line(self, text, error):
        with pytest.raises(DataFormatError, match=f"^{re.escape(error)}$"):
            parse_dataset(text)
        _assert_parse_equals_scan(text)

    def test_repeated_name_read_names_the_file(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("a,b,b\n1,2,3\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:1: header has repeated")):
            read_dataset(path)

    @pytest.mark.parametrize("names, error", [
        (("x", "x"), "repeated column name 'x' in columns 0 and 1"),
        (("u", "v", "w", "v", "u"), "repeated column name 'v' in columns 1 and 3"),
        ((1, "1"), "repeated column name '1' in columns 0 and 1"),
    ])
    def test_dataset_rejects_repeated_names(self, names, error):
        with pytest.raises(ValidationError, match=f"^{re.escape(error)}$"):
            Dataset(names, np.ones((2, len(names))))

    def test_header_only_rejected(self):
        with pytest.raises(ValidationError):
            parse_dataset("a,b\n")

    def test_empty_file_rejected(self):
        with pytest.raises(DataFormatError):
            parse_dataset("")


# field syntax float() or np.loadtxt treat specially, next to plain numbers
_ODD_FIELDS = ["1_0", "#1", '"1"', "0x1", "nan", "inf", "-Infinity", "1e500", "5e-324",
               "\u0663", "\u0661.5", "", " ", "x", " 2.5 ", "+.5", "-0", "1e5", "1,2", "1 2"]


@st.composite
def _dataset_texts(draw):
    """Texts mixing well-formed tables with the syntax either parser may refuse."""
    p = draw(st.integers(1, 4))
    comma = draw(st.booleans())
    clean = draw(st.booleans())
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(-99, 99).map(str)
    field = number if clean else number | st.sampled_from(_ODD_FIELDS)
    pad = st.sampled_from(["", " ", "\t"]) if comma else st.sampled_from([" ", "\t", "  ", "\u00a0"])
    names = [f"v{i}" for i in range(p)]
    if not clean and draw(st.booleans()):
        names[draw(st.integers(0, p - 1))] = ""
    lines = draw(st.lists(st.sampled_from(["", "  ", "\t "]), max_size=2))
    lines.append(("," if comma else " ").join(names))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "space", "arity"]))
        if kind == "blank" or kind == "space":
            lines.append("" if kind == "blank" else " \t ")
            continue
        width = draw(st.integers(1, p + 1)) if kind == "arity" and not clean else p
        fields = draw(st.lists(field, min_size=width, max_size=width))
        delimiter = "," if comma else draw(pad)
        lines.append(draw(pad) + (draw(pad) + delimiter).join(fields) + draw(pad))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def _outcome(parse, text):
    try:
        ds = parse(text)
    except ToolkitError as e:
        return type(e), str(e)
    return ds.names, ds.data.shape, ds.data.tobytes()


def _assert_parse_equals_scan(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(parse_dataset, text)
    assert got == _outcome(lambda t: datasets._scan_dataset(t, "<string>"), text)


class TestParserEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(_dataset_texts())
    def test_parse_equals_line_scan(self, text):
        _assert_parse_equals_scan(text)

    @pytest.mark.parametrize("text", [
        "a,b\n1_0,2\n", "a b\n1 2\n \t\n3 4\n", "a,b\n1,2\n  \n3,4\n", "a,b\n#1,2\n",
        "a,b\n\u0663,2\n", "a,b\n", "a,b\n\n \n", "\n a b \r\n 1 2\r\n", "a,,b\n1,2,3\n",
    ])
    def test_named_syntax_equals_line_scan(self, text):
        _assert_parse_equals_scan(text)

    @pytest.mark.parametrize("delimiter", [",", " "])
    def test_well_formed_text_skips_the_scan(self, monkeypatch, delimiter):
        rng = np.random.default_rng(1)
        text = format_dataset(Dataset(tuple(f"x{i}" for i in range(80)),
                                      rng.normal(size=(200, 80)))).replace(",", delimiter)
        want = datasets._scan_dataset(text, "<string>")
        monkeypatch.setattr(datasets, "_scan_dataset", None)
        got = parse_dataset(text)
        assert got.names == want.names
        assert got.data.tobytes() == want.data.tobytes()


def _format_reference(ds):
    lines = [",".join(ds.names)]
    lines.extend(",".join(f"{v:.17g}" for v in row) for row in ds.data)
    return "\n".join(lines) + "\n"


class TestFormatting:
    @pytest.mark.parametrize("values", [
        [[-0.0, 5e-324, 1.7976931348623157e308, 1.0 / 3.0]],
        [[2.0, -7.0, 1e16, 0.0], [123456789.0, -1e-300, 2.0 ** 53, 0.1]],
    ])
    def test_special_values_match_reference(self, values):
        ds = Dataset(tuple("abcd"), np.array(values))
        assert format_dataset(ds) == _format_reference(ds)

    @pytest.mark.parametrize("p", [1, 200])
    def test_table_matches_reference(self, p):
        rng = np.random.default_rng(p)
        data = rng.normal(size=(50, p)) * 10.0 ** rng.integers(-300, 300, size=(50, p))
        data[::7] = np.round(data[::7])
        ds = Dataset(tuple(f"v{i}" for i in range(p)), data)
        assert format_dataset(ds) == _format_reference(ds)


def _table(values, p=1):
    data = np.asarray(values, dtype=float).reshape(-1, p)
    return Dataset(tuple(f"v{j}" for j in range(p)), data)


def _ulps(x, count):
    """``x`` and its ``count`` nearest neighbours on each side."""
    out = [x]
    for toward in (-math.inf, math.inf):
        y = x
        for _ in range(count):
            y = math.nextafter(y, toward)
            out.append(y)
    return out


def _ties():
    """Doubles odd * 2**-j with exactly 18 significant digits, the last a 5:
    each is an exact tie between two 17-digit decimals."""
    out = []
    for j in range(2, 26):
        five = 5 ** j
        low, high = -(-10 ** 17 // five) | 1, min(10 ** 18 // five, 2 ** 53) - 1
        for odd in (low, low + 2, (low + high) // 2 | 1, high - 2 | 1, high | 1):
            if odd <= high and 10 ** 17 <= odd * five < 10 ** 18:
                out.append(math.ldexp(odd, -j))
    return out


class TestFormatKernel:
    """The array kernel of format_dataset writes the bytes of "%.17g"."""

    @given(st.integers(1, 6).flatmap(lambda p: st.tuples(st.just(p), st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-1e16, 1e16),
                  st.builds(math.ldexp, st.integers(-2 ** 53, 2 ** 53), st.integers(-70, 5))),
        min_size=p, max_size=8 * p))))
    @settings(max_examples=300, deadline=None)
    def test_property_matches_reference(self, case):
        p, values = case
        ds = _table(values[:len(values) // p * p], p)
        assert format_dataset(ds) == _format_reference(ds)

    def test_powers_of_ten_and_neighbours_match_reference(self):
        values = [y for k in range(-5, 18) for y in _ulps(float(f"1e{k}"), 2)]
        values += _ulps(1e-4, 8) + _ulps(1e16, 8)
        # doubles just below a power of ten that 17 digits round up to it; none
        # lies in 1e-4 <= |x| < 1e16, where the kernel writes
        values += [1e-14, 1e98]
        values += [-v for v in values]
        ds = _table(values, 2)
        assert format_dataset(ds) == _format_reference(ds)

    def test_ties_at_the_eighteenth_digit_match_reference(self):
        ties = _ties()
        # the 18th significant digit is a 5 and the 19th a 0
        assert len(ties) > 50 and {f"{v:.18e}"[18:20] for v in ties} == {"50"}
        ds = _table(ties + [-v for v in ties])
        assert format_dataset(ds) == _format_reference(ds)

    @pytest.mark.parametrize("p", [1, 3])
    def test_tables_across_chunks_match_reference(self, p):
        n = (2 * datasets._CHUNK + 5) // p + 1
        assert n * p % datasets._CHUNK
        rng = np.random.default_rng(p)
        ds = _table(rng.normal(size=n * p) * 10.0 ** rng.integers(-6, 18, size=n * p), p)
        assert format_dataset(ds) == _format_reference(ds)

    def test_seeded_large_table_matches_reference(self):
        ds = sample(random_sem(80, "heterogeneous", 1901), 2000, 1902)
        assert format_dataset(ds) == _format_reference(ds)


class TestRoundTrip:
    def test_write_read_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(("u", "v", "w"), rng.normal(size=(17, 3)) * 1e3)
        path = tmp_path / "d.csv"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back.names == ds.names
        assert np.array_equal(back.data, ds.data)

    @pytest.mark.parametrize("names, column", [
        (("a,b", "c"), 0),  # the comma splits the name in two
        ((" a", "b"), 0),  # the reader strips each field
        (("a", "b\t"), 1),
        (("a\nb", "c"), 0),  # a line break ends the header
        (("a", "b\rc"), 1),
        (("", "c"), 0),  # the reader rejects an empty name
        (("a b",), 0),  # a one-column header splits on whitespace
        (("",), 0),  # an empty one-column header is no header
        (("a,b",), 0),
    ])
    def test_header_that_would_not_read_back_rejected(self, tmp_path, names, column):
        ds = Dataset(names, np.ones((2, len(names))))
        want = re.escape(f"column {column} name {names[column]!r}")
        with pytest.raises(ValidationError, match=want):
            format_dataset(ds)
        with pytest.raises(ValidationError, match=want):
            write_dataset(ds, tmp_path / "d.csv")
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("names", [("a b", "c"), ("a",), ("é", "x.y", "#z")])
    def test_names_that_read_back_are_written(self, names):
        ds = Dataset(names, np.arange(2.0 * len(names)).reshape(2, -1))
        assert parse_dataset(format_dataset(ds)).names == names

    def test_format_is_stable(self):
        ds = Dataset(("a",), np.array([[1.0 / 3.0]]))
        assert format_dataset(ds) == format_dataset(ds)
        assert float(format_dataset(ds).splitlines()[1]) == 1.0 / 3.0


class TestMarksFixture:
    def test_shape_and_names(self):
        marks = load_marks()
        assert marks.n == 88
        assert marks.p == 5
        assert marks.names == ("mechanics", "vectors", "algebra",
                               "analysis", "statistics")

    def test_published_summary_statistics(self):
        # the classic published moments of this table
        marks = load_marks()
        means = marks.data.mean(axis=0)
        assert np.allclose(means, [38.9545, 50.5909, 50.6023, 46.6818, 42.3068],
                           atol=5e-4)
        cov = sample_covariance(marks)
        assert np.allclose(np.diag(cov), [305.77, 172.84, 112.89, 220.38, 297.76],
                           atol=0.01)
        corr = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
        want = np.array([
            [1.000, 0.553, 0.547, 0.409, 0.389],
            [0.553, 1.000, 0.610, 0.485, 0.436],
            [0.547, 0.610, 1.000, 0.711, 0.665],
            [0.409, 0.485, 0.711, 1.000, 0.607],
            [0.389, 0.436, 0.665, 0.607, 1.000],
        ])
        assert np.allclose(corr, want, atol=5e-4)

    def test_marks_scale(self):
        marks = load_marks()
        assert marks.data.min() >= 0.0
        assert marks.data.max() <= 100.0


def _fixed(x, digits=None):
    """``x`` in positional notation: its shortest repr, or rounded to
    ``digits`` significant digits."""
    text = repr(x) if digits is None else f"{x:.{digits - 1}e}"
    return format(Decimal(text), "f")


def _midpoints(digits):
    """Decimals next to the midpoint of two adjacent doubles, rounded to
    ``digits`` significant digits: the ones float64 rounding finds hardest."""
    rng = np.random.default_rng(digits)
    out = []
    for x in np.concatenate([10.0 ** rng.uniform(-3, 15, 60), [0.1, 0.3, 1.0, 2.0 ** 53 - 1]]):
        x = float(x)
        mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
        out.append(format(+mid.normalize(Context(prec=digits)), "f"))
        out.append(format(mid.normalize(Context(prec=digits, rounding=ROUND_FLOOR)), "f"))
        out.append(format(mid.normalize(Context(prec=digits, rounding=ROUND_CEILING)), "f"))
    return out


def _scientific_midpoints(digits):
    """The same across the whole normal range, in "%e" notation."""
    rng = np.random.default_rng(100 + digits)
    bits = rng.integers(0x0010000000000000, 0x7FEFFFFFFFFFFFFF, 150, dtype=np.uint64)
    out = []
    for x in bits.view(np.float64).tolist() + [1e-300, 2.0 ** -1022, 1e300]:
        mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
        for rounding in (ROUND_HALF_EVEN, ROUND_FLOOR, ROUND_CEILING):
            out.append(format(mid.normalize(Context(prec=digits, rounding=rounding)),
                              f".{digits - 1}e"))
    return out


# fields whose doubles are hard to get right, each with its sign flipped
_ADVERSARIAL = [f for digits in (17, 18, 19) for f in _midpoints(digits)]
_ADVERSARIAL += [str(10 ** 18), str(10 ** 19 - 1), str(2 ** 63), str(2 ** 63 + 1025),
                 str(2 ** 64 - 1), str(10 ** 19), "12345678901234567890", "99999999999999999999",
                 str(2 ** 53 + 1), str(2 ** 54 + 2), str(2 ** 64 + 4097)]
_ADVERSARIAL += ["0." + "0" * zeros + "12345678901234567" for zeros in range(8)]
_ADVERSARIAL += ["-0", "0", "-0.0", "5.", ".5", "-.5", "00012.50", "0000000000000000000000001"]
_ADVERSARIAL += [_fixed(y, digits) for k in range(-4, 17) for y in _ulps(float(f"1e{k}"), 3)
                 for digits in (None, 17)]
_ADVERSARIAL += ["5e-324", "1.7976931348623157e308", "2.5E-3", "+1.5", "1e+05",
                 "1.00000000000000000000001", "123456789012345678901234",
                 "0.0000000000000000000001", "0.00000000000000000000001", "1" * 23 + ".5"]
# with an exponent: "%e" text, as np.savetxt writes it, and repr below 1e-4 or
# from 1e16 up
_ADVERSARIAL += [f for digits in (17, 18, 19) for f in _scientific_midpoints(digits)]
_ADVERSARIAL += ["1e5", "1E5", "1E-005", "1.5e0005", "12.5e-3", ".5e1", "5.e-1", "0e999",
                 "0.0e-999", "1e-400", "123456789012345678e-30", "1234567890123456789e-5",
                 "12345678901234567890e-5", "1.7976931348623158e308", "2.2250738585072014e-308",
                 "2.2250738585072011e-308", "2.2250738585072012e-308", "4.9e-324", "1e-323",
                 "9.999999999999999e-343", "1e-342", "1e-343", "1e308", "1e22", "1e23",
                 "9007199254740993e0", "9007199254740993e1", "1e00000"]
_ADVERSARIAL += [repr(10.0 ** k * m) for k in range(-320, 309, 7)
                 for m in (1.0, 1.2345678901234567)]
_ADVERSARIAL += ["%.18e" % x for x in np.random.default_rng(9).normal(size=40) * 1e-6]
_ADVERSARIAL += [f[1:] if f.startswith("-") else "-" + f.lstrip("+") for f in _ADVERSARIAL]


def _savetxt_and_repr_fields():
    """"%.18e", repr and "%.16E" text of doubles from 1e-300 to 1e300."""
    rng = np.random.default_rng(4)
    values = rng.normal(size=300) * 10.0 ** rng.integers(-300, 300, 300)
    return [*("%.18e" % x for x in values), *map(repr, values.tolist()),
            *(f"{x:.16E}" for x in values)]


def _kernel_values(fields, p, eol="\n"):
    """The kernel's values of ``fields`` laid out as CSV rows of p fields."""
    names = [f"a_column_name_long_enough_{j}" for j in range(p)]
    rows = [",".join(fields[i:i + p]) for i in range(0, len(fields), p)]
    ds = datasets._read_table(eol.join([",".join(names), *rows]) + eol)
    assert ds is not None
    return ds.data.reshape(-1)


class TestParseKernel:
    """The array kernel of parse_dataset gives the doubles of ``float()``."""

    @given(st.integers(1, 4).flatmap(lambda p: st.tuples(st.just(p), st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(-1e6, 1e6).flatmap(lambda x: st.integers(0, 20).map(lambda d: f"{x:.{d}f}")),
        st.builds(lambda sign, whole, point, frac: sign + whole + point + frac,
                  st.sampled_from(["", "-"]), st.text("0123456789", max_size=20),
                  st.sampled_from(["", "."]), st.text("0123456789", max_size=20))
        .filter(lambda f: any(c.isdigit() for c in f)),
        st.builds(lambda x, digits, e: f"{x:.{digits}{e}}",
                  st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 20),
                  st.sampled_from("eE")).filter(lambda f: math.isfinite(float(f)))),
        min_size=p, max_size=12 * p))))
    @settings(max_examples=300, deadline=None)
    def test_property_matches_float(self, case):
        p, fields = case
        fields = fields[:len(fields) // p * p]
        want = np.array([float(f) for f in fields])
        assert _kernel_values(fields, p).tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [1, 3])
    def test_adversarial_fields_match_float(self, p):
        fields = _ADVERSARIAL + ["0"] * (-len(_ADVERSARIAL) % p)
        want = np.array([float(f) for f in fields])
        assert _kernel_values(fields, p).tobytes() == want.tobytes()

    @pytest.mark.parametrize("fields", [
        [f for digits in (17, 18, 19) for f in _midpoints(digits)], _savetxt_and_repr_fields(),
    ], ids=["midpoints", "savetxt-and-repr"])
    def test_fields_are_read_by_the_kernel(self, monkeypatch, fields):
        # each field float() reads alone is recorded: the kernel decides all of
        # these itself
        read_alone = []
        monkeypatch.setattr(datasets, "float", lambda f: read_alone.append(f) or float(f),
                            raising=False)
        assert _kernel_values(fields, 1).tobytes() == np.array(list(map(float, fields))).tobytes()
        assert read_alone == []

    @pytest.mark.parametrize("field", ["1e309", "-1e309", "nan", "1.7976931348623159e308"])
    def test_non_finite_field_goes_to_the_scan(self, field):
        text = "a_long_column_name,b\n1.5,2\n" + field + ",3\n"
        assert datasets._read_table(text) is None
        with pytest.raises(DataFormatError, match=":3: missing/non-finite value"):
            parse_dataset(text)

    @pytest.mark.parametrize("text", [
        "a,b\n1,2\n", "name_long_enough_here\n1\n", "a_long_header_name,b\n1,2\r3,4\n",
        "a_long_header_name,b\n1,2\x0c\n3,4\n", "a_long_header_name,b\n1,,2\n",
        "a_long_header_name b\n1,2\n", "a_long_header_name,b\n 1 , 2 3\n",
        "a_long_header_name,b\n1,2\n3\n", "x\x0cy_long_header name\n1 2\n",
        "a_long_header_name,b\n1_0,2\n", "a_long_header_name,b\n1,٣\n",
        *(f"a_long_header_name,b\n1.5,2\n{field},3\n"
          for field in ("1.5e+5e5", "1e", "1e+", "e5", "1e5.5", "1ee5", "1e+-5")),
    ])
    def test_refused_layouts_give_the_scan_outcome(self, text):
        _assert_parse_equals_scan(text)

    @pytest.mark.parametrize("layout", [
        lambda t: t, lambda t: t.replace("\n", "\r\n"), lambda t: t.replace(",", " "),
        lambda t: t.replace(",", "\t"),
        lambda t: "\n  " + t.replace(",", "   ").replace("\n", " \n\n"),
        lambda t: t.replace(",", " , ").replace("\n", " \t\n"), lambda t: t.rstrip("\n"),
    ])
    def test_layouts_are_read_by_the_kernel(self, layout):
        rng = np.random.default_rng(5)
        values = rng.normal(size=240) * 10.0 ** rng.integers(-3, 8, 240)
        text = layout(format_dataset(_table(values, 6)))
        got = datasets._read_table(text)
        want = datasets._scan_dataset(text, "<string>")
        assert got is not None and got.names == want.names
        assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("p", [1, 7])
    def test_table_across_a_chunk_boundary(self, p):
        rng = np.random.default_rng(p)
        n = 3 * datasets._PARSE_CHUNK // (20 * p) // 2
        text = format_dataset(_table(rng.normal(size=n * p), p))
        assert datasets._PARSE_CHUNK < len(text) < 2 * datasets._PARSE_CHUNK
        for end in ("", "\n"):
            got = datasets._read_table(text.rstrip("\n") + end)
            assert got is not None
            assert got.data.tobytes() == datasets._scan_dataset(text, "<string>").data.tobytes()

    @pytest.mark.parametrize("chunk", [1, 40, 333])
    def test_small_chunks_give_the_same_values(self, monkeypatch, chunk):
        rng = np.random.default_rng(chunk)
        text = format_dataset(_table(rng.normal(size=300) * 1e3, 3)).replace("\n", " \r\n")
        want = datasets._scan_dataset(text, "<string>")
        monkeypatch.setattr(datasets, "_PARSE_CHUNK", chunk)
        got = datasets._read_table(text)
        assert got is not None and got.data.tobytes() == want.data.tobytes()

