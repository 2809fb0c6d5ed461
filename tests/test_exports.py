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
