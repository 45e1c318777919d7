import ast
import glob
import importlib
import inspect
import os

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


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_exported(name):
    # a public name has one home, its module, and is listed there
    module = importlib.import_module(name)
    defined = [n for n, obj in vars(module).items()
               if not n.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == name]
    assert sorted(set(defined) - set(module.__all__)) == []


def _settable_values(path: str) -> int:
    """Parameters with defaults plus class fields with defaults."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            count += len(node.args.defaults) \
                + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def test_settable_value_count_is_pinned():
    # every value a caller can set costs configurations to test and
    # benchmark: a change that adds or removes one updates this number
    # and says why
    src = os.path.dirname(d2dcap.__file__)
    assert sum(_settable_values(p)
               for p in glob.glob(os.path.join(src, "*.py"))) == 36
