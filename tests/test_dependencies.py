"""The package imports nothing outside the standard library, not dataclasses, and
nothing it does not read."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "localpoints"


def _absolute_imports():
    """(file name, module) for each absolute import of each package module."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                yield from ((source.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield source.name, node.module


def test_package_imports_are_relative_or_standard_library():
    outside = [f"{source}: {name}" for source, name in _absolute_imports()
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_no_module_imports_dataclasses():
    # each @dataclass generates and compiles its methods at import, which made up about a
    # quarter of the package's import time; the records are plain __slots__ classes
    users = [source for source, name in _absolute_imports() if name.split(".")[0] == "dataclasses"]
    assert users == []


def test_each_module_reads_every_name_it_imports():
    # __init__ imports to re-export; every other module imports only what it reads
    unread = []
    for source in sorted(PACKAGE.glob("*.py")):
        if source.name == "__init__.py":
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"))
        imported = {}  # bound name: line
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                               and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{source.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unread == []


def test_no_module_calls_splitlines():
    # str.splitlines also ends a line at \f, \v, \x1c-\x1e, \x85, U+2028 and U+2029, which
    # misnumbers every later line of a claim file; exprs.source_lines ends one where Python does
    calls = [f"{source.name}:{node.lineno}" for source in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "splitlines"]
    assert calls == []


def _package_statements():
    """Each module's top-level statements, and the top-level statements that read each name."""
    trees = {source.name: ast.parse(source.read_text(encoding="utf-8"))
             for source in sorted(PACKAGE.glob("*.py"))}
    readers = {}  # name: the top-level statements that read it
    for tree in trees.values():
        for statement in tree.body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.id, set()).add(statement)
    return {source: tree.body for source, tree in trees.items()}, readers


def _defined(statement):
    """The names a top-level function, class or assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = (statement.targets if isinstance(statement, ast.Assign)
               else [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def test_every_private_function_and_class_is_read_in_the_package():
    # nothing outside the package may keep a private name alive: a private top-level
    # function or class that no other statement of the package reads is dead code
    bodies, readers = _package_statements()
    private = [(source, statement) for source, body in bodies.items() for statement in body
               if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
               and statement.name.startswith("_") and not statement.name.startswith("__")]
    assert private
    unread = [f"{source}:{statement.lineno} {statement.name}" for source, statement in private
              if not readers.get(statement.name, set()) - {statement}]
    assert unread == []


def test_every_public_name_is_exported_or_read_in_the_package():
    # a public top-level function, class or constant that __init__ does not export and no
    # other statement of the package reads is dead code that only a test keeps alive
    bodies, readers = _package_statements()
    exported = {alias.asname or alias.name for statement in bodies["__init__.py"]
                if isinstance(statement, ast.ImportFrom) for alias in statement.names}
    public = [(source, statement, name) for source, body in bodies.items()
              if source != "__init__.py" for statement in body
              for name in _defined(statement) if not name.startswith("_")]
    assert public
    unread = [f"{source}:{statement.lineno} {name}" for source, statement, name in public
              if name not in exported and not readers.get(name, set()) - {statement}]
    assert unread == []
