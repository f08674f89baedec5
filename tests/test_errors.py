import numpy as np
import pytest

from cvdag.datasets import read_dataset, write_dataset
from cvdag.errors import DataFormatError, ReportIOError
from cvdag.graphs import Dag, read_cpdag, read_dag, write_graph
from cvdag.numerics import Dataset
from cvdag.sem import nonfaithful_chain, read_sem, write_sem

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
