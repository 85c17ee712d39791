"""The parsed-series cache behind ``hurstkit estimate``.

An entry is the array ``read_series`` returned for a file, stored as
``<digest>.npy`` in ``$XDG_CACHE_HOME/hurstkit`` (``~/.cache/hurstkit`` when
that variable is unset, empty or relative).  The digest is the SHA-256 of
the reader's tag followed by the file's bytes, so a file is parsed once per
content, whatever its name or mtime.  The directory keeps the
``MAX_ENTRIES`` most recently used entries; deleting it clears the cache.  A
cache that cannot be read or written costs the parse and nothing else: the
array, the errors and their messages are ``read_series``'s.
"""

import contextlib
import hashlib
import os
import tempfile

import numpy as np
from numpy.lib.format import open_memmap, write_array

from . import __version__, harness
from .harness import _parse_series

# Bump for a change to what read_series returns or rejects that does not
# edit harness.py; hurstkit's and numpy's versions and the source of
# harness.py, which holds the reader, are in the tag as well.
_FORMAT = b"hurstkit.read_series/1"
MAX_ENTRIES = 16
_CACHE_ERRORS = (OSError, ValueError, EOFError)


def cache_dir():
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(root, "hurstkit")


def reader_tag():
    """What the digest of a file's bytes starts with: it names the reader
    that parsed them, so that no entry another reader stored is read back."""
    with open(harness.__file__, "rb") as fh:
        source = hashlib.sha256(fh.read()).hexdigest()
    return b"\0".join([_FORMAT, __version__.encode(), np.__version__.encode(),
                       source.encode(), b""])


def read_series_cached(path):
    """``read_series(path)``, loaded from the cache if these bytes were
    parsed before and stored there if not.  The file is read once: the
    bytes hashed are the bytes parsed."""
    with open(path, "rb") as fh:
        data = fh.read()
    entry = None
    with contextlib.suppress(*_CACHE_ERRORS):
        digest = hashlib.sha256(reader_tag())
        digest.update(data)
        entry = os.path.join(cache_dir(), digest.hexdigest() + ".npy")
        return _load(entry)
    values = _parse_series(data, path)
    if entry is not None:
        with contextlib.suppress(*_CACHE_ERRORS):
            _store(entry, values)
    return values


def _load(entry):
    """The entry's array if it is one ``read_series`` could return; a
    missing, truncated or foreign entry raises one of ``_CACHE_ERRORS``."""
    values = np.array(open_memmap(entry, mode="r"))
    if not (values.dtype == np.float64 and values.ndim == 1
            and values.size >= 2 and np.isfinite(values).all()):
        raise ValueError(f"{entry}: not a parsed series")
    with contextlib.suppress(OSError):
        os.utime(entry)  # most recently used
    return values


def _store(entry, values):
    """Write the entry atomically, then drop all but the newest entries."""
    folder = os.path.dirname(entry)
    os.makedirs(folder, exist_ok=True)
    fd, temp = tempfile.mkstemp(suffix=".tmp", dir=folder)
    try:
        with os.fdopen(fd, "wb") as fh:
            write_array(fh, values, allow_pickle=False)
            # on disk before the rename: a crash must not leave a full-length
            # entry of zeros, which would pass for a series
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, entry)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise
    # a temporary file another process left behind counts as an entry, so it
    # ages out too
    files = [e for e in os.scandir(folder)
             if e.name.endswith((".npy", ".tmp")) and e.is_file()]
    files.sort(key=lambda e: e.stat().st_mtime_ns, reverse=True)
    for stale in files[MAX_ENTRIES:]:
        with contextlib.suppress(FileNotFoundError):
            os.remove(stale.path)
