import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cvdag.datasets import format_dataset, read_dataset, write_dataset
from cvdag.errors import DataFormatError, ReportIOError, ValidationError, write_files
from cvdag.graphs import Dag, dag_to_cpdag, format_graph, read_cpdag, read_dag, write_graph
from cvdag.numerics import Dataset
from cvdag.sem import format_sem, nonfaithful_chain, read_sem, write_sem

READERS = {f.__name__: f for f in (read_dag, read_cpdag, read_sem, read_dataset)}
WRITERS = {
    "write_graph": lambda path: write_graph(Dag(2, frozenset({(0, 1)})), path),
    "write_sem": lambda path: write_sem(nonfaithful_chain(), path),
    "write_dataset": lambda path: write_dataset(Dataset(("a", "b"), np.eye(2)), path),
}
# (what stands at the path, the error, how its message starts)
READ_FAULTS = {
    "missing": (None, ReportIOError, "cannot read {path}: "),
    "directory": ("dir", ReportIOError, "cannot read {path}: "),
    "not-text": (b"\xff", DataFormatError, "{path}: not "),
}
WRITE_FAULT = ("dir", ReportIOError, "cannot write under {path.parent}: ")
# the UTF-8 byte-order mark that Notepad and Excel's "CSV UTF-8" open a file with
BOM = b"\xef\xbb\xbf"
# reader name -> the text of a file it reads, and the text of what it read
TEXTS = {
    "read_dag": (format_graph(Dag(3, {(0, 1), (1, 2)})), format_graph),
    "read_cpdag": (format_graph(dag_to_cpdag(Dag(3, {(0, 2), (1, 2)}))), format_graph),
    "read_sem": (format_sem(nonfaithful_chain()), format_sem),
    "read_dataset": (format_dataset(Dataset(("a", "b"), np.eye(2))), format_dataset),
}


@pytest.mark.parametrize("call, fault", [
    *[pytest.param(reader, fault, id=f"{name}-{kind}")
      for name, reader in READERS.items() for kind, fault in READ_FAULTS.items()],
    *[pytest.param(writer, WRITE_FAULT, id=f"{name}-directory")
      for name, writer in WRITERS.items()],
])
def test_library_file_errors_are_typed(call, fault, tmp_path):
    # once bare FileNotFoundError, IsADirectoryError or UnicodeDecodeError
    make, error, message = fault
    path = tmp_path / "file"
    if make == "dir":
        path.mkdir()
    elif make is not None:
        path.write_bytes(make)
    with pytest.raises(error) as err:
        call(path)
    assert str(err.value).startswith(message.format(path=path))


@pytest.mark.parametrize("call", [
    *[pytest.param(reader, id=name) for name, reader in READERS.items()],
    *[pytest.param(writer, id=name) for name, writer in WRITERS.items()],
    pytest.param(lambda path: write_files(path, {"a.txt": "a"}), id="write_files"),
])
@pytest.mark.parametrize("path, kind", [(None, "NoneType"), (b"file", "bytes"), (3, "int")])
def test_path_must_be_a_str_or_path_like(call, path, kind):
    # None once raised a bare TypeError from Path(None)
    with pytest.raises(ValidationError) as err:
        call(path)
    assert str(err.value) == f"path must be a str or os.PathLike, got {kind}"


@pytest.mark.parametrize("call", [
    format_dataset,
    lambda ds: write_dataset(ds, "unused.csv"),
])
@pytest.mark.parametrize("value, kind", [(None, "NoneType"), (np.eye(2), "ndarray")])
def test_dataset_writers_need_a_dataset(call, value, kind):
    # once a bare AttributeError on .data
    with pytest.raises(ValidationError) as err:
        call(value)
    assert str(err.value) == f"CSV text needs a Dataset, got {kind}"


@pytest.mark.parametrize("name", READERS)
def test_byte_order_mark_is_dropped(name, tmp_path):
    # the mark was once read as part of the first token: "expected node count,
    # got '\ufeff3'", "unknown field '\ufeffp'" or a column named '\ufeffa'
    text, back = TEXTS[name]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode())
    marked.write_bytes(BOM + text.encode())
    assert back(READERS[name](marked)) == back(READERS[name](plain)) == text


def test_undecodable_byte_is_named_by_its_file_offset(tmp_path):
    # the mark's three bytes count: 0xff stands at byte 11, not 8
    path = tmp_path / "d.csv"
    path.write_bytes(BOM + b"a,b\n1,2\n\xff\n")
    with pytest.raises(DataFormatError) as err:
        read_dataset(path)
    assert str(err.value).startswith(f"{path}: not utf-8 text at byte 11 ")


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # under an ASCII locale a column named "\u00b5" once failed to read, and to
    # write, as text in the locale's encoding
    text = format_dataset(Dataset(("\u00b5", "b"), np.eye(2)))
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_bytes(text.encode())
    # the probe of the locale's encoding warns too, so it runs before the filter
    script = "\n".join([
        "import locale, sys, warnings",
        "from cvdag.datasets import read_dataset, write_dataset",
        "with warnings.catch_warnings():",
        "    warnings.simplefilter('ignore')",
        "    print(locale.getpreferredencoding(False))",
        "warnings.simplefilter('error', EncodingWarning)",
        "write_dataset(read_dataset(sys.argv[1]), sys.argv[2])",
    ])
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-c", script, src, dst],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().lower().replace("-", "") != "utf8"
    assert dst.read_bytes() == text.encode()
