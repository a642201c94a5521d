"""The package surface: submodules bound as modules, and __all__ lists that match what each module binds."""

import importlib
import inspect
import pkgutil

import blochcopy

_SUBMODULES = {
    info.name: importlib.import_module(f"blochcopy.{info.name}") for info in pkgutil.iter_modules(blochcopy.__path__)
}


def test_every_submodule_is_bound_as_a_module():
    # a function re-exported under its own module's name would replace the module
    assert {name: getattr(blochcopy, name) for name in _SUBMODULES} == _SUBMODULES
    import blochcopy.pauli as pauli

    assert pauli.l_table().shape == (4, 4, 4, 4)


def test_every_name_in_a_submodule_all_exists():
    missing = [f"{name}.{attr}" for name, mod in _SUBMODULES.items() for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []
    for name in _SUBMODULES:
        exec(f"from blochcopy.{name} import *", {})


def _listed_where_defined(name: str, obj) -> bool:
    if inspect.isfunction(obj) or inspect.isclass(obj):
        return name in _SUBMODULES[obj.__module__.rsplit(".", 1)[-1]].__all__
    # constants carry no module: some submodule must bind the same object and list it
    return any(vars(mod).get(name) is obj and name in mod.__all__ for mod in _SUBMODULES.values())


def test_every_reexported_name_is_in_its_modules_all():
    reexported = {
        name: obj for name, obj in vars(blochcopy).items() if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert reexported
    assert [name for name, obj in reexported.items() if not _listed_where_defined(name, obj)] == []


def test_every_name_in_a_library_submodule_all_is_bound_on_the_package():
    # the command line module is the one submodule that importing the package leaves out
    unbound = [
        f"{name}.{attr}"
        for name, mod in _SUBMODULES.items()
        if name != "cli"
        for attr in mod.__all__
        if getattr(blochcopy, attr, None) is not getattr(mod, attr)
    ]
    assert unbound == []
