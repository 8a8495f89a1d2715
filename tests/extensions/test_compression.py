"""The ``repro.extensions`` package is gone.

Postings compression was moved out of it long ago and is tested where it
lives (``tests/ir/test_codec.py``, ``tests/ir/test_postings_backends.py``,
``tests/ir/test_postings_property.py``); the joins and ranking prototypes
that remained were deleted with the package.  This file pins that neither
the package nor its old compression shim imports.
"""

import importlib

import pytest


class TestDeprecationShim:
    def test_package_no_longer_reexports(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.extensions")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.extensions.compression")
