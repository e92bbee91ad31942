"""Every definition in src/ is on a path the program runs.

The program's entry points are `lab` (cli.main), the module-level tables
and constants of the package, and every name that scripts/ or perfbench/
uses.  From them the test follows name references through definition
bodies until nothing new is reached, and fails on any top-level function,
class or method left over.  Names resolve by spelling: a bare name reaches
the top-level definitions of that name in any module, an attribute or a
string (the tracer binds by string) also reaches methods, and a reached
class brings its body and its dunder methods.  An import statement uses
no name: a definition that is imported and never used is unreached.  This
over-approximates the call graph: a flagged name is unreached unless a
computed string looks it up.  The references that tests compare the
package against live in tests/oracles.py, outside the package.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sparsedom"

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(nodes):
    """(bare names, attribute-like names) used anywhere under nodes; a
    name that an import statement binds counts only where it is used."""
    bare, attrs = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                bare.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                attrs.update(p for p in sub.value.split(".")
                             if p.isidentifier())
    return bare, attrs


def _definitions():
    """{qualified name: (def node, is method)} and the module-level
    statements that are not definitions."""
    defs, tables = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, DEFS):
                tables.append(node)
                continue
            defs[f"{mod}.{node.name}"] = (node, False)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFS):
                        defs[f"{mod}.{node.name}.{item.name}"] = (item, True)
    return defs, tables


def _reach(defs, bare, attrs):
    """The qualified names reached from the given names."""
    reached, todo = set(), [(bare, attrs)]
    while todo:
        bare, attrs = todo.pop()
        for key, (node, method) in defs.items():
            name = key.rsplit(".", 1)[1]
            if key in reached or not (name in attrs
                                      or name in bare and not method):
                continue
            reached.add(key)
            body = [node]
            if isinstance(node, ast.ClassDef):
                # its fields, bases and decorators; a method by name, but
                # a dunder method with the class
                body = node.bases + node.decorator_list + [
                    item for item in node.body if not isinstance(item, DEFS)
                    or item.name.startswith("__")]
                reached.update(f"{key}.{item.name}" for item in node.body
                               if isinstance(item, DEFS)
                               and item.name.startswith("__"))
            todo.append(_names(body))
    return reached


def _program_roots(tables):
    bare, attrs = _names(tables)
    bare.add("main")  # cli.main, the `lab` console script
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            b, a = _names([ast.parse(path.read_text())])
            bare |= b
            attrs |= a
    return bare, attrs


def test_every_definition_is_reached():
    defs, tables = _definitions()
    unreached = sorted(set(defs) - _reach(defs, *_program_roots(tables)))
    assert not unreached, f"no program path reaches {unreached}"
