"""Source hygiene checks that need only the standard library."""

import ast
import json
import os
import pathlib
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "unramified"
PERFBENCH = TESTS.parent / "perfbench"


def unused_imports(tree: ast.Module) -> list:
    """Names bound by a module-level import and never read in the module.
    `from __future__` imports and names listed in `__all__` are exempt."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def public_functions(tree: ast.Module):
    """(qualified name, node) of every module-level function and every method
    of a public module-level class whose name does not start with a single
    underscore; dunder methods such as `__init__` count as public."""
    for node in tree.body:
        scopes = [("", node)]
        if isinstance(node, ast.ClassDef):
            scopes = [(f"{node.name}.", item) for item in node.body
                      if not node.name.startswith("_")]
        for prefix, item in scopes:
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and (not item.name.startswith("_") or item.name.startswith("__"))):
                yield prefix + item.name, item


def parameter_names(node) -> set:
    args = node.args
    every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return {a.arg for a in every if a is not None}


def names_read(trees) -> set:
    """Every name the trees read, as a name or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unused_public_definitions(modules: dict) -> list:
    """`module.name` of every public module-level function or class that
    `__init__` does not export and no module of the package reads, as a
    name or as an attribute, and `module.Class.method` of every public
    method of a public class whose name no module of the package reads.
    `modules` maps module names to parsed trees."""
    exported = {alias.asname or alias.name
                for node in modules["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = names_read(tree for name, tree in modules.items() if name != "__init__")
    unused = []
    for module, tree in modules.items():
        names = [(node.name, node.name) for node in tree.body
                 if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]
        # dunder methods are called by the language, not by name
        names += [(qualified, node.name) for qualified, node in public_functions(tree)
                  if not node.name.startswith("__")]
        unused.extend(f"{module}.{qualified}" for qualified, name in names
                      if name not in read and ("." in qualified or name not in exported))
    return sorted(unused)


def unused_private_functions(modules: dict) -> list:
    """`module.name` of every private module-level function (its name starts
    with a single underscore) that no module of the package reads, as a
    name or as an attribute.  `modules` maps module names to parsed trees."""
    read = names_read(modules.values())
    return sorted(f"{module}.{node.name}" for module, tree in modules.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name.startswith("_") and not node.name.startswith("__")
                  and node.name not in read)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Name) and decorator.id == "dataclass":
            return True
    return False


def assigned_attributes(node):
    """(name, attribute, line) for every assignment `name.attribute = ...`
    in the subtree."""
    for sub in ast.walk(node):
        targets = (sub.targets if isinstance(sub, ast.Assign)
                   else [sub.target] if isinstance(sub, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
                yield target.value.id, target.attr, target.lineno


def class_fields(node: ast.ClassDef):
    """Every field of the class if it is a dataclass, and every attribute
    that its `__init__` assigns on `self`."""
    dataclass = _is_dataclass(node)
    for item in node.body:
        if (dataclass and isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)):
            yield item.target.id
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            yield from (attr for name, attr, _ in assigned_attributes(item)
                        if name == "self")


def public_fields(tree: ast.Module):
    """(class, attribute) for every field of a public class (see
    `class_fields`)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from ((node.name, attr) for attr in class_fields(node))


def undeclared_assignments(modules: dict) -> list:
    """`module:line: name.attribute` for every assignment to an attribute of
    a name other than `self` that no class of `modules` declares: a field
    (see `class_fields`) or a `cached_property`.  Dunders are exempt.
    `modules` maps module names to parsed trees."""
    declared = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                declared.update(class_fields(node))
                declared.update(
                    item.name for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and any(isinstance(d, ast.Name) and d.id == "cached_property"
                            for d in item.decorator_list))
    return sorted(f"{module}:{line}: {name}.{attr}" for module, tree in modules.items()
                  for name, attr, line in assigned_attributes(tree)
                  if name != "self" and not attr.startswith("__") and attr not in declared)


def unread_fields(modules: dict, readers: list) -> list:
    """`module.Class.attribute` of every public field (see `public_fields`)
    of `modules`, which maps module names to parsed trees, whose attribute
    name no tree of `readers` reads."""
    read = {node.attr for tree in readers for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{module}.{cls}.{attr}" for module, tree in modules.items()
                  for cls, attr in public_fields(tree) if attr not in read)


def names_defined_twice(modules: dict) -> list:
    """`name: module, module` for every public module-level name (function,
    class or assigned name not starting with an underscore) that more than
    one module defines.  `modules` maps module names to parsed trees."""
    defined: dict = {}
    for module, tree in modules.items():
        names = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
        for name in names:
            if not name.startswith("_"):
                defined.setdefault(name, []).append(module)
    return sorted(f"{name}: {', '.join(found)}"
                  for name, found in defined.items() if len(found) > 1)


def _calls(node, name: str) -> bool:
    """Whether the node is a call of `name`, as a name or as an attribute,
    or a call that is handed `name` as an argument, as `functools.partial`
    is."""
    def names(arg) -> bool:
        return ((isinstance(arg, ast.Name) and arg.id == name)
                or (isinstance(arg, ast.Attribute) and arg.attr == name))

    return isinstance(node, ast.Call) and (names(node.func) or any(map(names, node.args)))


def callers(modules: dict, name: str) -> list:
    """The modules that call `name` (see `_calls`).  `modules` maps module
    names to parsed trees."""
    return sorted(module for module, tree in modules.items()
                  if any(_calls(node, name) for node in ast.walk(tree)))


def uncalled_exports(modules: dict) -> list:
    """Every module-level function that `__init__` exports and that no
    module calls (see `_calls`) outside the function's own definition.
    `modules` maps module names to parsed trees."""
    exported = {alias.asname or alias.name
                for node in modules["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    uncalled = []
    for tree in modules.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in exported:
                own = set(map(id, ast.walk(node)))
                if not any(id(call) not in own and _calls(call, node.name)
                           for other in modules.values() for call in ast.walk(other)):
                    uncalled.append(node.name)
    return sorted(uncalled)


def keyword_only_parameters(modules: dict):
    """(qualified name, callee, parameter) for every keyword-only parameter
    of a function of the package, methods and nested functions included.
    The callee is the name a call uses: a class for its `__init__`.
    `modules` maps module names to parsed trees."""
    for module, tree in modules.items():
        owner = {id(item): node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(node))
            callee = cls if node.name == "__init__" and cls else node.name
            qualified = callee if cls in (None, callee) else f"{cls}.{node.name}"
            for arg in node.args.kwonlyargs:
                yield f"{module}.{qualified}", callee, arg.arg


def unpassed_options(modules: dict) -> list:
    """`qualified name: parameter` for every keyword-only parameter (see
    `keyword_only_parameters`) that no call of its callee in the package
    (see `_calls`) passes by name.  `modules` maps module names to parsed
    trees."""
    calls = [node for tree in modules.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    return sorted(f"{qualified}: {name}"
                  for qualified, callee, name in keyword_only_parameters(modules)
                  if not any(_calls(call, callee) and name in {k.arg for k in call.keywords}
                             for call in calls))


def test_unused_imports_helper_sees_only_unread_names():
    tree = ast.parse("import os\nimport sys\nfrom a import b, c as d\nprint(sys, d)\n")
    assert unused_imports(tree) == [(1, "os"), (3, "b")]


def test_public_functions_helper_sees_methods_and_skips_private_names():
    tree = ast.parse("def f(a, *, budget=1): pass\n"
                     "def _g(budget): pass\n"
                     "class C:\n"
                     "    def __init__(self, budget): pass\n"
                     "    def _h(self, budget): pass\n"
                     "class _D:\n"
                     "    def __init__(self, budget): pass\n")
    assert [(name, sorted(parameter_names(node))) for name, node in public_functions(tree)] == [
        ("f", ["a", "budget"]), ("C.__init__", ["budget", "self"])]


def test_no_public_function_takes_a_budget():
    """The reduction-step budget is ambient (`groebner.step_budget`), so no
    public function threads one through its parameters."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}: {name}" for name, node in public_functions(tree)
                     if "budget" in parameter_names(node))
    assert found == []


def test_no_unused_module_level_imports():
    """In the package (its `__init__` re-exports by importing) and in the
    tests."""
    found = []
    for path in sorted(SOURCE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.parent.name}/{path.name}:{line}: {name}"
                     for line, name in unused_imports(tree))
    assert found == []


def test_unused_public_definitions_helper():
    modules = {
        "__init__": ast.parse("from .a import exported\n"),
        "a": ast.parse("def exported(): pass\n"
                       "def dead(): pass\n"
                       "def _private(): pass\n"
                       "def local(): pass\n"
                       "class Dead: pass\n"
                       "local()\n"),
        "b": ast.parse("from . import a\n"
                       "def by_attribute(): pass\n"
                       "a.by_attribute\n"),
        "c": ast.parse("class Used:\n"
                       "    def __init__(self): pass\n"
                       "    def called(self): pass\n"
                       "    def unread(self): pass\n"
                       "    def _helper(self): pass\n"
                       "class _Hidden:\n"
                       "    def unread(self): pass\n"
                       "Used().called()\n"),
    }
    assert unused_public_definitions(modules) == ["a.Dead", "a.dead", "c.Used.unread"]


def test_every_public_definition_is_exported_or_used():
    """Public code that nothing exports or calls is dead weight: delete it, or
    move it to the tests when only a test uses it."""
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SOURCE.glob("*.py"))}
    assert unused_public_definitions(modules) == []


def test_unused_private_functions_helper():
    modules = {
        "a": ast.parse("def _orphan(): pass\n"
                       "def _called(): pass\n"
                       "def __getattr__(name): pass\n"
                       "def public(): _called()\n"
                       "class C:\n"
                       "    def _method(self): pass\n"),
        "b": ast.parse("from . import a\n"
                       "def _by_attribute(): pass\n"
                       "a._by_attribute\n"),
    }
    assert unused_private_functions(modules) == ["a._orphan"]


def test_every_private_function_is_used():
    """A private helper that no module of the package calls, left behind
    when its last caller went, is dead weight: delete it."""
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SOURCE.glob("*.py"))}
    assert unused_private_functions(modules) == []


def test_names_defined_twice_helper():
    modules = {
        "a": ast.parse("def twice(): pass\nLIMIT = 1\n_private = 1\nclass Once: pass\n"),
        "b": ast.parse("def twice(): pass\nLIMIT: int = 2\n_private = 2\n"),
    }
    assert names_defined_twice(modules) == ["LIMIT: a, b", "twice: a, b"]


def test_no_public_name_is_defined_in_two_modules():
    """One definition per public name: a second one is a wrapper or a copy
    that the package exports or calls instead of the first."""
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SOURCE.glob("*.py"))}
    assert names_defined_twice(modules) == []


def test_unread_fields_helper():
    defining = ast.parse("from dataclasses import dataclass\n"
                         "@dataclass(frozen=True)\n"
                         "class Result:\n"
                         "    used: int\n"
                         "    unread: list\n"
                         "@dataclass\n"
                         "class _Hidden:\n"
                         "    unread: int\n"
                         "class Engine:\n"
                         "    def __init__(self):\n"
                         "        self.rows = self.spare = []\n"
                         "    def helper(self):\n"
                         "        self.later = 0\n")
    reader = ast.parse("result.used\nengine.rows.append(1)\nengine.spare = None\n")
    assert sorted(public_fields(defining)) == [
        ("Engine", "rows"), ("Engine", "spare"), ("Result", "unread"), ("Result", "used")]
    assert unread_fields({"a": defining}, [reader]) == ["a.Engine.spare", "a.Result.unread"]


def test_undeclared_assignments_helper():
    modules = {
        "a": ast.parse("from dataclasses import dataclass\n"
                       "from functools import cached_property\n"
                       "@dataclass\n"
                       "class Report:\n"
                       "    status: str = 'ok'\n"
                       "class _Row:\n"
                       "    def __init__(self):\n"
                       "        self.terms = {}\n"
                       "class Algebra:\n"
                       "    def __init__(self):\n"
                       "        self.origin = None\n"
                       "    @cached_property\n"
                       "    def dimension(self): return 0\n"
                       "    def later(self):\n"
                       "        self.spare = 1\n"),
        "b": ast.parse("def prove(report, row, algebra):\n"
                       "    report.status = 'cap'\n"
                       "    row.terms = {}\n"
                       "    algebra.dimension = algebra.origin = 3\n"
                       "    algebra.orgin = None\n"
                       "    algebra.spare = 2\n"
                       "    prove.__name__ = 'check'\n"),
    }
    assert undeclared_assignments(modules) == ["b:5: algebra.orgin", "b:6: algebra.spare"]


def test_every_assigned_attribute_is_declared():
    """A fact that one module proves and assigns on another's object, such
    as an algebra's dimension, is an attribute its class declares: a
    misspelt one would be stored for nobody, and the fact would silently be
    computed again."""
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SOURCE.glob("*.py"))}
    assert undeclared_assignments(modules) == []


def test_every_public_field_is_read():
    """A field that no module of the package, the tests or the benchmark
    reads is computed and stored for nobody: delete it."""
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SOURCE.glob("*.py"))}
    readers = list(modules.values()) + [
        ast.parse(path.read_text(), filename=str(path))
        for path in sorted(TESTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))]
    assert unread_fields(modules, readers) == []


def test_callers_helper():
    modules = {
        "a": ast.parse("def build(): pass\nbuild()\n"),
        "b": ast.parse("from functools import partial\nfrom .a import build\n"
                       "later = partial(build, 1)\n"),
        "c": ast.parse("from . import a\na.build()\n"),
        "d": ast.parse("from .a import build\ndef f(x: build) -> build: return x\n"),
    }
    assert callers(modules, "build") == ["a", "b", "c"]


def test_one_module_builds_algebras_and_two_run_buchberger():
    """Every algebra comes from a constructor of `algebras`, which hands
    `QuotientAlgebra` the function that builds its basis on first use; a
    Groebner basis is computed only for an algebra or a Kaehler module."""
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SOURCE.glob("*.py"))}
    assert callers(modules, "QuotientAlgebra") == ["algebras"]
    assert callers(modules, "buchberger") == ["algebras", "differentials"]


def test_uncalled_exports_helper():
    modules = {
        "__init__": ast.parse("from .a import used, recursive, handed, idle\n"),
        "a": ast.parse("def used(): pass\n"
                       "def recursive(n): return recursive(n - 1)\n"
                       "def handed(): pass\n"
                       "def idle(): pass\n"
                       "def caller(): return used(), map(handed, [])\n"),
    }
    assert uncalled_exports(modules) == ["idle", "recursive"]


def test_unpassed_options_helper():
    modules = {
        "a": ast.parse("def f(x, *, used=1, idle=2): pass\n"
                       "class C:\n"
                       "    def __init__(self, *, size=0): pass\n"
                       "    def run(self, *, fast=False): pass\n"
                       "def g(*args, handed=1): pass\n"),
        "b": ast.parse("from functools import partial\nfrom .a import C, f, g\n"
                       "f(1, used=2)\nC(size=3).run()\npartial(g, handed=2)\n"
                       "run(fast=True)\n"),
    }
    assert sorted(qualified for qualified, _, _ in keyword_only_parameters(modules)) == [
        "a.C", "a.C.run", "a.f", "a.f", "a.g"]
    assert unpassed_options(modules) == ["a.f: idle"]
    del modules["b"].body[-1]
    assert unpassed_options(modules) == ["a.C.run: fast", "a.f: idle"]


def test_every_option_has_a_caller():
    """A keyword-only parameter is an option, and some call in the package
    passes it by name: an option that no caller sets is one more
    configuration for tests and benchmarks to cover, for nobody."""
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SOURCE.glob("*.py"))}
    assert unpassed_options(modules) == []


# Exported functions that no module of the package calls, each with its reason.
UNCALLED_EXPORTS = {
    "is_injective": "named in perfbench/spans.py TRACED, which must resolve",
    "parse_scalar": "the documented inverse of fields.format_scalar",
}


def test_no_test_only_public_function_comes_back():
    """An exported function must be called by the package outside its own
    definition; one that only tests call belongs in the tests.  The
    exceptions are listed above, and each must still be one."""
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SOURCE.glob("*.py"))}
    assert uncalled_exports(modules) == sorted(UNCALLED_EXPORTS)
    assert '"is_injective"' in (PERFBENCH / "spans.py").read_text()


def private_reads(modules: dict) -> list:
    """`reader: module._name` for every single-underscore name that a module
    of the package reads from another package module, by `from .module
    import _name` or as `module._name` after `from . import module`.
    `modules` maps module names to parsed trees."""
    reads = set()
    for reader, tree in modules.items():
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    siblings.update(alias.asname or alias.name for alias in node.names)
                else:
                    reads.update((reader, node.module, alias.name) for alias in node.names)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in siblings):
                reads.add((reader, node.value.id, node.attr))
    return sorted(f"{reader}: {module}.{name}" for reader, module, name in reads
                  if name.startswith("_") and not name.startswith("__"))


def test_private_reads_helper():
    modules = {
        "a": ast.parse("def _own(): pass\ndef public(): pass\n"),
        "b": ast.parse("from .a import _own, public\n"),
        "c": ast.parse("from . import a\nfrom os import _exit\na._own()\na.public()\n"
                       "a.__name__\n"),
    }
    assert private_reads(modules) == ["b: a._own", "c: a._own"]


# Private names that one package module reads from another, each with its
# reason.
PRIVATE_READS = {
    "constructions: differentials._outside_m_squared":
        "the one derivation test to the residue field, for the killing chain's skip test",
    "algebras: polynomials._standard_monomials":
        "the one staircase walk, for the local model's Hilbert function",
    "groebner: polynomials._standard_monomials":
        "the one staircase walk, for staircases and degree slices",
}


def test_no_module_reads_another_modules_private_names():
    """A private name is read only in its own module, apart from the listed
    shared helpers; a second way to ask a question (such as a count of
    standard monomials beside the walk that lists them) stays out."""
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SOURCE.glob("*.py"))}
    assert private_reads(modules) == sorted(PRIVATE_READS)


def raw_form_readers(modules: dict) -> list:
    """The modules that know how a field kind stores its values: they read
    a field-kind constant (`RATIONALS`, `PRIME_FIELD`, `RATIONAL_FUNCTIONS`)
    or an element's `.payload`, or call `FieldElement(...)`.  `modules` maps
    module names to parsed trees."""
    kinds = {"RATIONALS", "PRIME_FIELD", "RATIONAL_FUNCTIONS"}
    readers = set()
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Name) and node.id in kinds)
                    or (isinstance(node, ast.alias) and node.name in kinds)
                    or (isinstance(node, ast.Attribute) and node.attr in kinds | {"payload"})
                    or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "FieldElement")):
                readers.add(module)
    return sorted(readers)


def test_raw_form_readers_helper():
    modules = {
        "a": ast.parse("from .fields import PRIME_FIELD\n"),
        "b": ast.parse("def f(c): return c.payload\n"),
        "c": ast.parse("def f(field, v): return FieldElement(field, v)\n"),
        "d": ast.parse("from . import fields\nkind = fields.RATIONALS\n"),
        "e": ast.parse("def f(field, c): return field.raw(c), field.modulus, c.is_zero()\n"),
    }
    assert raw_form_readers(modules) == ["a", "b", "c", "d"]


# Package modules that know how each field kind stores its values, each with
# its reason; every other module computes on raw values through the
# `FieldDescriptor` methods `raw`, `from_raw`, `modulus` and `raw_inverse`.
RAW_FORM_READERS = {
    "fields": "defines the field kinds, their payloads and the raw form",
    "polynomials": "formats F_p(x) coefficients, and refuses a ring variable named "
                   "like the generator of F_p(x)",
    "parsing": "reads the field specification, and the generator x of F_p(x) in "
               "expressions",
    "constructions": "the local-case check asks whether the base field is perfect",
}


def test_one_module_decides_the_raw_form():
    """How an exact loop computes on a raw coefficient (an int mod p, a
    Fraction or an F_p(x) element) is decided in `fields` alone: the
    Groebner engine, the linear algebra and the differentials read no field
    kind and no payload, so a second way to compute on one does not come
    back."""
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SOURCE.glob("*.py"))}
    assert raw_form_readers(modules) == sorted(RAW_FORM_READERS)


_PROFILE_IMPORT = """
import cProfile, json, pstats
profile = cProfile.Profile()
profile.enable()
import unramified.cli
profile.disable()
print(json.dumps(list(pstats.Stats(profile).stats)))
"""


def class_bodies(tree: ast.Module) -> set:
    """(first line, name) of each class body in a module, the line being
    that of the first decorator when there is one: the code a class
    statement runs at import, as a profiler names it."""
    return {(min([node.lineno] + [d.lineno for d in node.decorator_list]), node.name)
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


def test_class_bodies_helper():
    tree = ast.parse("from dataclasses import dataclass\n"
                     "@dataclass\n"
                     "class A:\n"
                     "    class B: pass\n"
                     "    def f(self): pass\n")
    assert class_bodies(tree) == {(2, "A"), (4, "B")}


def test_importing_the_cli_runs_no_package_function():
    """`setup_s` times interpreter start, import and parsing, so importing
    the package does no work of its own: in a fresh interpreter, profiling
    `import unramified.cli` sees no function of the package's files run,
    apart from the class bodies and module bodies and the two calls that
    make the constant `QQ`.  Code that dataclasses generate is compiled
    from `<string>`, whose line numbers collide, so it is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    out = subprocess.run([sys.executable, "-c", _PROFILE_IMPORT], env=env,
                         capture_output=True, text=True, check=True).stdout
    bodies = {path.name: class_bodies(ast.parse(path.read_text()))
              for path in SOURCE.glob("*.py")}
    ran = set()
    for filename, line, name in json.loads(out):
        path = pathlib.Path(filename).resolve()
        if path.parent != SOURCE or name == "<module>":
            continue
        assert path.name in bodies, filename
        if (line, name) not in bodies[path.name]:
            ran.add((path.stem, name))
    assert ran == {("fields", "rationals"), ("fields", "__post_init__")}
