"""Every annotation in ``repro.ease.compile`` and in
``repro.ease.interp`` (the linking and run harness it builds on)
resolves.

The modules use postponed annotations, so a name missing from their
imports shows only when something resolves the hints.
"""

import inspect
import typing

import pytest

import repro.ease.compile as compile_module
import repro.ease.interp as interp_module


def _functions():
    for module in (compile_module, interp_module):
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield name, obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        yield f"{name}.{attr}", member


FUNCTIONS = list(_functions())


def test_the_module_has_annotated_methods():
    names = {name for name, _ in FUNCTIONS}
    assert {"_FunctionCompiler._tree", "_FunctionCompiler._fuse_operand"} <= names


@pytest.mark.parametrize("name,function", FUNCTIONS, ids=[n for n, _ in FUNCTIONS])
def test_type_hints_resolve(name, function):
    typing.get_type_hints(function)
