"""Postings compression is not an extension any more.

The codec and the compressed backend are tested where they live
(``tests/ir/test_codec.py``, ``tests/ir/test_postings_backends.py``,
``tests/ir/test_postings_property.py``); the ``repro.extensions.compression``
deprecation shim has been deleted.  This file pins what is left of its
contract: the package neither re-exports the names nor ships the module.
"""

import importlib

import pytest


class TestDeprecationShim:
    def test_package_no_longer_reexports(self):
        import repro.extensions as extensions

        assert "CompressedPostingsList" not in extensions.__all__
        assert not hasattr(extensions, "varint_encode")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.extensions.compression")
