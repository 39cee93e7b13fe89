"""Every module's ``__all__`` names exactly its public functions and classes."""

import importlib
import inspect
import pkgutil

import pytest

import degat_kit

MODULES = sorted(m.name for m in pkgutil.iter_modules(degat_kit.__path__))


def _function_or_class(obj):
    return inspect.isfunction(obj) or inspect.isclass(obj)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_public_functions_and_classes(name):
    mod = importlib.import_module(f"degat_kit.{name}")
    public = {
        attr for attr, obj in vars(mod).items()
        if not attr.startswith("_") and _function_or_class(obj) and obj.__module__ == mod.__name__
    }
    exported = getattr(mod, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    undefined = [attr for attr in exported if not hasattr(mod, attr)]
    assert not undefined, f"{name}.__all__ names undefined {undefined}"
    # constants such as GRADIENT_CHECKS may be exported too
    callables = {attr for attr in exported if _function_or_class(getattr(mod, attr))}
    assert callables == public, (
        f"{name}.__all__ lacks {sorted(public - callables)}, "
        f"has non-public {sorted(callables - public)}"
    )
