"""Durable-commit behavior of result files and IFile segments.

Recovery is only as trustworthy as the files it adopts.  Two invariants
pinned here: a worker result file is either a complete pickle or absent
(``load_result`` treats anything torn as "no result", i.e. an ordinary
retry), and an atomically written IFile segment's rename target is
always a complete, readable segment -- never a truncated one.
"""

import os
import pickle

from repro.mapreduce.ifile import IFileReader, IFileWriter
from repro.mapreduce.runtime.attempt import AttemptSpec
from repro.mapreduce.runtime.worker import commit_record, load_result
from repro.util.fsio import atomic_write_bytes


class TestLoadResult:
    def test_missing_file_is_no_result(self, tmp_path):
        assert load_result(str(tmp_path / "absent.pkl")) is None

    def test_empty_file_is_no_result(self, tmp_path):
        path = tmp_path / "_result.pkl"
        path.write_bytes(b"")
        assert load_result(str(path)) is None

    def test_truncated_pickle_is_no_result(self, tmp_path):
        """The torn-write case: a crash mid-write (pre-durable-commit)
        leaves half a pickle.  That must read as a retry signal, not
        crash the scheduler."""
        path = tmp_path / "_result.pkl"
        blob = pickle.dumps({"status": "ok", "value": list(range(100))})
        path.write_bytes(blob[:len(blob) // 2])
        assert load_result(str(path)) is None

    def test_garbage_bytes_are_no_result(self, tmp_path):
        path = tmp_path / "_result.pkl"
        path.write_bytes(b"\x80\x05this is not a pickle")
        assert load_result(str(path)) is None

    def test_write_result_commits_durably(self, tmp_path):
        spec = AttemptSpec("m00000", "map", 0, str(tmp_path), None, None,
                           None, durable=True)
        path = spec.result_path
        blob = commit_record(spec, {"status": "ok", "value": 42})
        assert load_result(path) == {"status": "ok", "value": 42}
        assert pickle.loads(blob) == load_result(path)
        # The temp file never outlives the commit.
        assert os.listdir(tmp_path) == ["_result.pkl"]


class TestAtomicIFile:
    RECORDS = [(f"k{i}".encode(), f"v{i}".encode()) for i in range(50)]

    def test_target_absent_until_close(self, tmp_path):
        path = str(tmp_path / "seg.ifile")
        writer = IFileWriter(path, atomic=True)
        for k, v in self.RECORDS:
            writer.append(k, v)
        assert not os.path.exists(path)  # nothing visible mid-write
        writer.close()
        assert IFileReader(path).read_all() == self.RECORDS
        # No temp droppings next to the committed segment.
        assert os.listdir(tmp_path) == ["seg.ifile"]

    def test_atomic_and_plain_bytes_identical(self, tmp_path):
        plain, atomic = str(tmp_path / "a"), str(tmp_path / "b")
        for path, is_atomic in [(plain, False), (atomic, True)]:
            writer = IFileWriter(path, atomic=is_atomic)
            for k, v in self.RECORDS:
                writer.append(k, v)
            writer.close()
        with open(plain, "rb") as f1, open(atomic, "rb") as f2:
            assert f1.read() == f2.read()


class TestAtomicWriteBytes:
    def test_overwrites_in_place(self, tmp_path):
        path = str(tmp_path / "blob")
        atomic_write_bytes(path, b"first")
        atomic_write_bytes(path, b"second")
        with open(path, "rb") as fh:
            assert fh.read() == b"second"
        assert os.listdir(tmp_path) == ["blob"]
