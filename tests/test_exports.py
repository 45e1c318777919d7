import importlib

import pytest

import d2dcap

MODULES = ["d2dcap.analysis", "d2dcap.experiments", "d2dcap.game",
           "d2dcap.learning", "d2dcap.radio"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    exported = importlib.import_module(name).__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported
            if not hasattr(importlib.import_module(name), n)] == []


def test_package_reexports_every_module_export():
    missing = [f"{name}.{attr}" for name in MODULES
               for attr in importlib.import_module(name).__all__
               if not hasattr(d2dcap, attr)]
    assert missing == []
