"""Docstring examples are executable documentation — keep them honest."""

import doctest

import repro


def _run(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{module.__name__}: {result.failed} doctest failures"
    return result.attempted


def test_package_quickstart_doctest():
    assert _run(repro) >= 1  # the README-style quickstart in repro.__doc__
