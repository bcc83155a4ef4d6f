"""Every name imported into a package module is used in that module,
every module-level private function is referenced by some package module,
every module imports on its own, the unchecked constructors stay in
the modules that define their classes, every module-level memo is
bounded, the brute-force oracles name none of the searches the compact
routes read nor any memo of the tableau statistics, and only the kernel
sums over the walk.

`__init__.py` is left out of the import check: it imports names to
re-export them.
"""

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "macpoly"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_a_leftover_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from itertools import permutations, product\n"
              "def f(x):\n"
              "    from json import dumps as d\n"
              "    return os.path.join(*product(x)), d\n")
    assert unused_imports(source) == ["permutations"]


def test_package_modules_are_found():
    assert "shapes.py" in MODULES and "cli.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == [], module


def _references(tree) -> Counter:
    """How often each name is read, as a name, an attribute or an import."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """The module-level functions named with one leading underscore that no
    module refers to outside their own body, as ``module:name``."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    total = sum(map(_references, trees.values()), Counter())
    return sorted(
        f"{mod}:{node.name}" for mod, tree in trees.items()
        for node in tree.body if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_") and not node.name.startswith("__")
        and total[node.name] == _references(node)[node.name])


def test_checker_finds_a_dead_private_helper():
    sources = {
        "a.py": ("def _used(x):\n    return x\n"
                 "def _dead():\n    return _used(1)\n"
                 "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
                 "def _imported():\n    pass\n"
                 "def _by_attribute():\n    pass\n"
                 "def __dunder__():\n    pass\n"
                 "def public():\n    pass\n"),
        "b.py": ("from .a import _imported\n"
                 "from . import a\n"
                 "f = a._by_attribute\n"),
    }
    assert unreferenced_private_functions(sources) == ["a.py:_dead",
                                                       "a.py:_recursive"]


def test_no_dead_private_functions():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_functions(sources) == []


# Binds the package name to an empty stand-in, so that importing one module
# does not run `__init__.py` first and fix the order of the other imports.
_IMPORT_ALONE = """
import importlib, sys, types
package = types.ModuleType({name!r})
package.__path__ = [{path!r}]
sys.modules[{name!r}] = package
importlib.import_module({name!r} + "." + {module!r})
"""


def import_error(package: Path, module: str) -> str:
    """The error output of importing one module of a package, alone, in a
    fresh interpreter; empty when the import succeeds."""
    code = _IMPORT_ALONE.format(name=package.name, path=str(package),
                                module=module)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    return proc.stderr if proc.returncode else ""


def test_checker_finds_a_cycle_that_works_in_one_order_only(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from . import b, a\n")
    (package / "a.py").write_text("from .b import g\ndef f():\n    pass\n")
    (package / "b.py").write_text("def g():\n    pass\nfrom .a import f\n")
    assert import_error(package, "b") == ""
    assert "ImportError" in import_error(package, "a")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    assert import_error(PACKAGE, module.removesuffix(".py")) == ""


# The class whose unchecked `_trusted` constructor each module may call.
TRUSTED_HOMES = {"Filling": "tableaux.py", "AugmentedFilling": "nonattacking.py",
                 "MPoly": "mpoly.py"}


def trusted_receivers(source: str) -> list[str]:
    """The names read `_trusted` from, in order: a class name, or the last
    attribute of a dotted receiver; '?' for any other expression."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "_trusted":
            value = node.value
            out.append(value.id if isinstance(value, ast.Name)
                       else value.attr if isinstance(value, ast.Attribute)
                       else "?")
    return out


def test_checker_finds_every_trusted_call():
    source = ("from . import tableaux\n"
              "a = Filling._trusted(())\n"
              "b = tableaux.AugmentedFilling._trusted((), (), None)\n"
              "c = type(a)._trusted(())\n"
              "def _trusted():\n    pass\n")
    assert trusted_receivers(source) == ["Filling", "AugmentedFilling", "?"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_trusted_constructors_stay_in_their_own_modules(module):
    for receiver in trusted_receivers((PACKAGE / module).read_text()):
        assert TRUSTED_HOMES.get(receiver) == module, receiver


def cache_decorators(source: str) -> list[tuple[str, str]]:
    """(name, decorator) for each module-level function memoised by
    ``functools.cache`` or ``lru_cache`` in any form."""
    return [(node.name, text) for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)
            for text in map(ast.unparse, node.decorator_list)
            if re.match(r"(functools\.)?(lru_)?cache\b", text)]


def unbounded_caches(source: str) -> list[str]:
    """The module-level functions memoised in any form but
    ``lru_cache(maxsize=<int literal>)``."""
    return [name for name, text in cache_decorators(source)
            if not re.fullmatch(r"(functools\.)?lru_cache\(maxsize=\d+\)",
                                text)]


def test_checker_finds_every_unbounded_cache():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "@lru_cache(maxsize=64)\ndef bounded(x):\n    return x\n"
              "@functools.lru_cache(maxsize=8)\ndef dotted(x):\n    return x\n"
              "@cache\ndef bare(x):\n    return x\n"
              "@functools.cache\ndef dotted_bare(x):\n    return x\n"
              "@lru_cache\ndef no_call(x):\n    return x\n"
              "@lru_cache()\ndef default(x):\n    return x\n"
              "@lru_cache(maxsize=None)\ndef unbounded(x):\n    return x\n"
              "@lru_cache(128)\ndef positional(x):\n    return x\n"
              "@lru_cache(maxsize=True)\ndef flag(x):\n    return x\n"
              "def render():\n    @cache\n    def inner(x):\n        return x\n")
    assert unbounded_caches(source) == ["bare", "dotted_bare", "no_call",
                                        "default", "unbounded", "positional",
                                        "flag"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_level_caches_are_bounded(module):
    assert unbounded_caches((PACKAGE / module).read_text()) == [], module


def test_no_module_level_memo_is_keyed_by_a_mask():
    # walk_sum takes each mask's weight once per sum; a memo by mask under
    # it would keep a second copy of the same weights across sums.
    memos = [node for p in PACKAGE.glob("*.py")
             for node in ast.parse(p.read_text()).body
             if isinstance(node, ast.FunctionDef)
             and cache_decorators(ast.unparse(node))]
    assert memos
    assert not [node.name for node in memos
                if "mask" in [a.arg for a in node.args.args]]


def names_reached(sources: dict[str, str], roots) -> set[str]:
    """Every name read by the module-level functions named in ``roots`` and,
    in turn, by every module-level function of the sources they read."""
    defs: dict[str, list] = {}
    for src in sources.values():
        for node in ast.parse(src).body:
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
    reached, todo, names = set(), list(roots), set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in defs.get(name, ()):
            refs = set(_references(node))
            names |= refs
            todo.extend(refs)
    return names


def test_checker_follows_helpers_across_modules():
    sources = {"a.py": ("from .b import helper\n"
                        "def oracle():\n    return helper()\n"
                        "def other():\n    return _walk()\n"),
               "b.py": "def helper():\n    return deep.enumerate_na()\n"}
    assert {"helper", "enumerate_na"} <= names_reached(sources, ["oracle"])
    assert "_walk" not in names_reached(sources, ["oracle"])


# The searches of the compact routes, which the oracles must not share.
SEARCHES = {"_walk", "enumerate_na", "enumerate_sorted"}


def test_brute_force_oracles_name_no_search_of_the_compact_routes():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    reached = names_reached(sources, ["htilde_brute", "j_hhl"])
    assert {"_column_tally", "inverted", "_side_by_side"} <= reached
    assert not SEARCHES & reached


def test_brute_force_oracles_name_no_memo_of_the_tableau_statistics():
    # A memo filled by an earlier call would let an oracle share the
    # answers of the public statistics, and a fault planted in the rule
    # they table would not reach the oracle.
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    tabled = {name for name, _ in cache_decorators(sources["tableaux.py"])}
    assert {"_pair_inv", "_column_maj", "_column_order",
            "_flip_pair"} <= tabled
    reached = names_reached(sources, ["htilde_brute", "j_hhl"])
    assert "_inversions" in reached
    assert not tabled & reached


def _enclosing(tree):
    """Each node's parent, and the module-level function it lies in (None
    at module level)."""
    parent, function = {}, {}
    for top in tree.body:
        name = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            function[node] = name
            for child in ast.iter_child_nodes(node):
                parent[child] = node
    return parent, function


def _is_call_of(node, name: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name)


def walk_readers(source: str) -> list[str]:
    """The module-level functions that read ``_walk`` in any way but by
    handing a ``_walk(...)`` call to ``walk_sum`` as its walk, directly or
    through a ``map`` that checks each tuple."""
    tree = ast.parse(source)
    parent, function = _enclosing(tree)
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Name) and node.id == "_walk"):
            continue
        call = walk = parent.get(node)
        if not _is_call_of(call, "_walk"):
            out.append(function[node])
            continue
        if (_is_call_of(parent.get(call), "map")
                and call in parent[call].args[1:]):
            walk = parent[call]
        up = parent.get(walk)
        if not (_is_call_of(up, "walk_sum") and up.args[:1] == [walk]):
            out.append(function[node])
    return sorted(out)


def test_checker_finds_every_reader_of_the_walk():
    source = ("def route(n):\n    return walk_sum(_walk(n), w)\n"
              "def checked(n):\n    return walk_sum(map(f, _walk(n)), w)\n"
              "def enumerate_na(n):\n    for raw in _walk(n):\n"
              "        yield raw\n"
              "def comp(n):\n    return [r for r in _walk(n)]\n"
              "def alias(n):\n    w = _walk\n    return walk_sum(w(n), f)\n"
              "def wrapped(n):\n    return walk_sum(list(_walk(n)), f)\n"
              "def weight(n):\n    return walk_sum(f, _walk(n))\n")
    assert walk_readers(source) == ["alias", "comp", "enumerate_na",
                                    "weight", "wrapped"]


def test_only_the_kernel_and_the_enumerators_iterate_the_walk():
    readers = [(module, name) for module in MODULES
               for name in walk_readers((PACKAGE / module).read_text())]
    assert sorted(readers) == [("nonattacking.py", "enumerate_na"),
                               ("tableaux.py", "enumerate_sorted")]
