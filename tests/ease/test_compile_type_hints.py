"""Every annotation in ``repro.ease.compile`` resolves.

The module uses postponed annotations, so a name missing from its
imports shows only when something resolves the hints.
"""

import inspect
import typing

import pytest

import repro.ease.compile as compile_module


def _functions():
    for name, obj in vars(compile_module).items():
        if getattr(obj, "__module__", None) != compile_module.__name__:
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
    assert {"_FunctionCompiler.arm_body", "_FunctionCompiler._fuse_operand"} <= names


@pytest.mark.parametrize("name,function", FUNCTIONS, ids=[n for n, _ in FUNCTIONS])
def test_type_hints_resolve(name, function):
    typing.get_type_hints(function)
