"""Shared pytest plumbing: collects acceptance verdicts and prints them as a
one-line-per-criterion checklist after the run, pass or fail; gives every
test a cache directory of its own."""

import pytest

_CHECKLIST = []


@pytest.fixture(autouse=True)
def _private_cache_home(tmp_path_factory, monkeypatch):
    """``hurstkit estimate`` caches parsed series under $XDG_CACHE_HOME: a
    fresh one per test keeps the user's cache out of every run, and every
    run out of it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))


def record_verdict(criterion, label, passed, detail):
    _CHECKLIST.append((criterion, label, passed, detail))


def pytest_terminal_summary(terminalreporter):
    if not _CHECKLIST:
        return
    terminalreporter.section("acceptance checklist")
    for criterion, label, passed, detail in sorted(_CHECKLIST):
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{word}] criterion {criterion} — {label}: {detail}")
