import numpy as np
import pytest

from cvdag.datasets import format_dataset, load_marks, parse_dataset, read_dataset, write_dataset
from cvdag.errors import DataFormatError, ValidationError
from cvdag.numerics import Dataset, sample_covariance


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

    def test_header_only_rejected(self):
        with pytest.raises(ValidationError):
            parse_dataset("a,b\n")

    def test_empty_file_rejected(self):
        with pytest.raises(DataFormatError):
            parse_dataset("")


class TestRoundTrip:
    def test_write_read_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(("u", "v", "w"), rng.normal(size=(17, 3)) * 1e3)
        path = tmp_path / "d.csv"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back.names == ds.names
        assert np.array_equal(back.data, ds.data)

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
