"""The shared temp-file-plus-rename writer."""

import os

import pytest

from psn.atomic import write_atomic


@pytest.mark.parametrize("data", ["text\n", b"\x00bytes\xff"])
def test_write_atomic_round_trips_and_leaves_no_temp_file(tmp_path, data):
    path = tmp_path / "out"
    write_atomic(path, data)
    got = path.read_bytes()
    assert got == (data if isinstance(data, bytes) else data.encode())
    assert os.listdir(tmp_path) == ["out"]


def test_failed_write_keeps_the_old_file_and_cleans_up(tmp_path):
    path = tmp_path / "out"
    path.write_text("old")
    with pytest.raises(TypeError):
        write_atomic(path, 12345)
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["out"]
