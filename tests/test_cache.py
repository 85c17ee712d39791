"""Tests for the parsed-series cache of ``hurstkit estimate``."""

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import hurstkit.harness
from hurstkit import _cache
from hurstkit.cli import main
from hurstkit.errors import DataError
from hurstkit.generators import FgnSpec
from hurstkit.harness import estimate_series, read_series, write_fgn
from hurstkit.results import METHODS

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def series(tmp_path_factory):
    path = tmp_path_factory.mktemp("series") / "fgn.txt"
    write_fgn(path, FgnSpec(0.7, 4000, 3))
    return path


@pytest.fixture
def parses(monkeypatch):
    """The paths read_series parses from now on."""
    seen = []
    parse = _cache._parse_series

    def counting(data, path):
        seen.append(path)
        return parse(data, path)

    monkeypatch.setattr(_cache, "_parse_series", counting)
    return seen


def entry_of(path):
    digest = hashlib.sha256(_cache.reader_tag()
                            + Path(path).read_bytes()).hexdigest()
    return Path(_cache.cache_dir()) / f"{digest}.npy"


def cache_files():
    folder = Path(_cache.cache_dir())
    return sorted(p.name for p in folder.iterdir()) if folder.exists() else []


def estimate(capsys, path, method="ghe", *extra):
    code = main(["estimate", "--input", str(path), "--method", method, *extra])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("method", METHODS)
def test_warm_output_is_the_cold_output(method, series, parses, capsys):
    expected = json.dumps(estimate_series(read_series(series), method).to_dict())
    cold = estimate(capsys, series, method)
    assert parses == [str(series)]
    assert cold == (0, expected + "\n", "")
    assert np.array_equal(np.load(entry_of(series)), read_series(series))
    assert estimate(capsys, series, method) == cold
    assert parses == [str(series)]  # the second call was a hit


def test_hit_gives_the_same_tsv(series, parses, capsys):
    cold = estimate(capsys, series, "rs", "--format", "tsv", "--rs-corrected")
    assert estimate(capsys, series, "rs", "--format", "tsv",
                    "--rs-corrected") == cold
    assert cold[1].startswith("method\trs\n")
    assert len(parses) == 1


def test_one_changed_byte_is_a_miss(series, tmp_path, parses, capsys):
    text = series.read_bytes()
    # the leading digit of the first value: another value, the same length
    at = text.index(b"\n") + 1
    while text[at] not in b"123456789":
        at += 1
    digit = b"2" if text[at] == ord("1") else b"1"
    changed = tmp_path / "changed.txt"
    changed.write_bytes(text[:at] + digit + text[at + 1:])
    first = estimate(capsys, series)
    second = estimate(capsys, changed)
    assert len(parses) == 2
    assert second[1] != first[1]
    assert second[1] == json.dumps(
        estimate_series(read_series(changed), "ghe").to_dict()) + "\n"
    assert len(cache_files()) == 2


def test_name_and_place_do_not_matter(series, tmp_path, parses, capsys):
    copy = tmp_path / "copy.dat"
    copy.write_bytes(series.read_bytes())
    assert estimate(capsys, series) == estimate(capsys, copy)
    assert len(parses) == 1


def truncated(good):
    return good.read_bytes()[:-8]


def saved(array):
    def write(good):
        np.save(good, array)
        return good.read_bytes()
    return write


@pytest.mark.parametrize("corrupt", [
    truncated,
    lambda good: b"",
    lambda good: b"not an array",
    saved(np.arange(4000, dtype=np.float32)),
    saved(np.arange(4000.0).astype(">f8")),
    saved(np.arange(4000.0).reshape(2000, 2)),
    saved(np.array([1.0])),
    saved(np.array([1.0, np.nan, 3.0])),
    saved(np.array([1.0, np.inf, 3.0])),
    saved(np.array(["1.0", "2.0"])),
], ids=["truncated", "empty", "garbage", "float32", "big-endian", "2-d",
        "one value", "nan", "inf", "strings"])
def test_bad_entry_falls_back_to_parsing(corrupt, series, parses, capsys):
    cold = estimate(capsys, series)
    entry = entry_of(series)
    entry.write_bytes(corrupt(entry))
    assert estimate(capsys, series) == cold
    assert len(parses) == 2
    # the parse replaced the bad entry
    assert np.array_equal(np.load(entry), read_series(series))


def test_header_claiming_more_than_the_file_is_a_miss(series, parses, capsys):
    # loading this would allocate 80 TB up front
    cold = estimate(capsys, series)
    entry = entry_of(series)
    raw = entry.read_bytes()
    old, new = b"(4000,), }", b"(9999999999999,), }"
    end = raw.index(b"\n")  # the header's padding ends there
    cut = end - (len(new) - len(old))
    assert raw[cut:end].strip() == b""
    entry.write_bytes(raw[:cut].replace(old, new) + raw[end:])
    assert estimate(capsys, series) == cold
    assert len(parses) == 2


def test_unwritable_cache_directory(series, parses, capsys):
    expected = estimate(capsys, series)
    folder = Path(_cache.cache_dir())
    for child in folder.iterdir():
        child.unlink()
    folder.chmod(0o555)
    try:
        assert estimate(capsys, series) == expected
    finally:
        folder.chmod(0o755)


def test_cache_path_that_cannot_be_a_directory(series, tmp_path, monkeypatch,
                                               parses, capsys):
    # a file where the cache directory should go: no user, root included, can
    # write an entry there
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    first = estimate(capsys, series)
    assert first[0] == 0 and first[2] == ""
    assert estimate(capsys, series) == first
    assert len(parses) == 2
    assert blocker.read_text() == ""


def test_hit_in_a_read_only_directory(series, parses, capsys):
    cold = estimate(capsys, series)
    folder = Path(_cache.cache_dir())
    folder.chmod(0o555)
    try:
        assert estimate(capsys, series) == cold
    finally:
        folder.chmod(0o755)
    assert len(parses) == 1


@pytest.mark.parametrize("name, content", [
    ("missing.txt", None),
    ("unparsable.txt", b"1.0\noops\n"),
    ("latin1.txt", b"1.0\n2.0\n\xff\xfe3\n"),
    ("short.txt", b"1.0\n"),
    ("nonfinite.txt", b"1.0\nnan\n2.0\n"),
])
def test_input_errors_are_the_readers_and_leave_no_entry(name, content,
                                                         tmp_path, capsys):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    try:
        read_series(path)
    except OSError as exc:
        expected = (1, "", f"error: {exc}\n")
    except DataError as exc:
        expected = (2, "", f"error: {exc}\n")
    assert estimate(capsys, path) == expected
    assert cache_files() == []


def test_directory_keeps_the_newest_sixteen(tmp_path, capsys):
    paths = []
    for i in range(20):
        path = tmp_path / f"s{i}.txt"
        write_fgn(path, FgnSpec(0.5, 300, i))
        paths.append(path)
    for path in paths[:16]:
        assert estimate(capsys, path, "lw")[0] == 0
    assert len(cache_files()) == _cache.MAX_ENTRIES == 16
    # distinct ages, oldest first, plus a temporary file a killed writer
    # left behind, older than all of them
    for age, path in enumerate(paths[:16]):
        os.utime(entry_of(path), (1000 + age, 1000 + age))
    stale = Path(_cache.cache_dir()) / "tmpleftover.tmp"
    stale.write_bytes(b"")
    os.utime(stale, (1, 1))
    assert len(cache_files()) == 17

    estimate(capsys, paths[0], "lw")  # a hit makes the oldest the newest
    estimate(capsys, paths[16], "lw")  # 18 files: the two oldest go
    names = cache_files()
    assert len(names) == 16
    assert stale.name not in names
    assert entry_of(paths[0]).name in names
    assert entry_of(paths[1]).name not in names
    assert entry_of(paths[2]).name in names
    for path in paths[17:]:
        estimate(capsys, path, "lw")
        assert len(cache_files()) == 16
    assert entry_of(paths[0]).name in cache_files()


def piped(data):
    """A path that reads ``data`` through a pipe once: a second open of it
    finds the pipe drained and its writer gone, so it reads no bytes."""
    read_end, write_end = os.pipe()

    def write():
        with open(write_end, "wb") as fh:
            fh.write(data)
    writer = threading.Thread(target=write)
    writer.start()
    return f"/dev/fd/{read_end}", writer, read_end


def test_a_pipe_is_read_once(series, parses, capsys):
    expected = json.dumps(estimate_series(read_series(series), "ghe").to_dict())
    paths = []
    for _ in range(2):  # a miss, then a hit on the entry the miss stored
        path, writer, fd = piped(series.read_bytes())
        assert estimate(capsys, path) == (0, expected + "\n", "")
        writer.join()
        os.close(fd)
        paths.append(path)
    assert parses == paths[:1]
    assert np.array_equal(np.load(entry_of(series)), read_series(series))


def test_read_series_reads_a_pipe_once(series):
    path, writer, fd = piped(series.read_bytes())
    assert np.array_equal(read_series(path), read_series(series))
    writer.join()
    os.close(fd)


def test_estimate_reads_standard_input(series):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    args = [sys.executable, "-m", "hurstkit.cli", "estimate", "--input",
            "/dev/stdin", "--method", "lw"]
    expected = json.dumps(
        estimate_series(read_series(series), "lw").to_dict()) + "\n"
    for _ in range(2):  # a miss, then a hit
        run = subprocess.run(args, env=env, input=series.read_bytes(),
                             capture_output=True)
        assert (run.returncode, run.stdout.decode(), run.stderr) == (
            0, expected, b"")
    assert entry_of(series).exists()


def test_another_reader_is_a_miss(series, tmp_path, monkeypatch, parses,
                                  capsys):
    cold = estimate(capsys, series)
    tag = _cache.reader_tag()
    monkeypatch.setattr(_cache, "__version__", "0.0.0")
    assert _cache.reader_tag() != tag
    assert estimate(capsys, series) == cold
    assert len(parses) == 2
    monkeypatch.undo()
    # an edit to the reader's source, the version left as it is
    edited = tmp_path / "harness.py"
    edited.write_bytes(Path(hurstkit.harness.__file__).read_bytes() + b"\n")
    monkeypatch.setattr(hurstkit.harness, "__file__", str(edited))
    assert _cache.reader_tag() != tag
    monkeypatch.undo()
    assert _cache.reader_tag() == tag


@pytest.mark.parametrize("value", [None, "", "relative/cache"])
def test_cache_dir_defaults_to_home(value, tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    if value is None:
        monkeypatch.delenv("XDG_CACHE_HOME")
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", value)
    assert _cache.cache_dir() == str(tmp_path / ".cache" / "hurstkit")


def test_cache_dir_follows_xdg_cache_home(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _cache.cache_dir() == str(tmp_path / "hurstkit")


def test_cache_loads_only_on_the_estimate_path():
    code = ("import sys, hurstkit, hurstkit.cli; "
            "print([m for m in ('hashlib', 'hurstkit._cache', "
            "'multiprocessing', 'concurrent.futures') "
            "if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
