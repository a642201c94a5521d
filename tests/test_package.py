"""The package surface: submodules bound as modules, __all__ lists that match what each module binds,
and a caller or a stated reason for every public name."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

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


def _used_in_the_package() -> set:
    """Names the package's source loads, by name or as an attribute of a package module, or imports by name.

    A name's def and its __all__ string are not uses, and neither is an
    attribute of anything but a package module, self or cls.
    """
    sources = list(pathlib.Path(blochcopy.__file__).parent.glob("*.py"))
    bases = {path.stem for path in sources} | {"self", "cls"}
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in bases
            ):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def _kept_for_a_stated_reason() -> set:
    """Names that README's Public API bullets list right after their colon.

    The reason before the colon, prose after the list and the table of
    removed wrappers give none.
    """
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    kept = set()
    for bullet in re.findall(r"^\* .*(?:\n  .*)*", section, re.MULTILINE):
        listed = re.match(r"\* [^:`]*:\s*((?:`[^`]*`[,\s]*)+)", bullet)
        if listed:
            kept.update(re.findall(r"`([A-Za-z_]\w*)", listed.group(1)))
    return kept


def test_every_public_name_has_a_caller_in_the_package_or_a_stated_reason():
    public = {name for name, obj in vars(blochcopy).items() if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public
    assert sorted(public - _used_in_the_package() - _kept_for_a_stated_reason()) == []
