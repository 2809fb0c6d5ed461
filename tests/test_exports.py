import importlib

import hhdeform


def test_every_exported_name_resolves():
    assert len(set(hhdeform.__all__)) == len(hhdeform.__all__)
    for name in hhdeform.__all__:
        getattr(hhdeform, name)


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from hhdeform import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(hhdeform.__all__)
    assert all(namespace[name] is getattr(hhdeform, name) for name in namespace)


def test_the_algebra_module_is_not_shadowed():
    # the package exports the constructors Algebra and build_algebra, so
    # `hhdeform.algebra` is the module and not its function `algebra`
    module = importlib.import_module("hhdeform.algebra")
    assert hhdeform.algebra is module
    assert hhdeform.algebra.Table is module.Table
    assert "algebra" not in hhdeform.__all__
