import os
from pathlib import Path

import pytest

import codewave

# tests start `python -m codewave.cli` children; they import the same
# package as the test process, installed or not
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(codewave.__file__).resolve().parents[1]),
                  os.environ.get("PYTHONPATH")]))

_acceptance_results = []


def pytest_collection_modifyitems(items):
    # a RuntimeWarning (overflow, division by zero, ...) fails the test that
    # raised it; the mark goes on this directory's tests only
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or "test_acceptance" not in item.nodeid:
        return
    label = (item.function.__doc__ or item.name).strip().splitlines()[0]
    _acceptance_results.append((label, report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for label, outcome in _acceptance_results:
        tag = {"passed": "PASS", "failed": "FAIL"}.get(outcome, outcome.upper())
        terminalreporter.write_line(f"[{tag}] {label}")
