"""Every function and class in src/zrxner is reached from the package itself.

A top-level function or class, or a method whose name is not a dunder, must
be referenced by name or attribute somewhere in src/zrxner. Code that only
tests call belongs in tests/oracles.py. The allowlist holds the few names kept
for a reader outside the package, each with its reason.
"""

import ast
import pathlib

import zrxner

ALLOWED = {
    "embeddings.write_vec_text": "writes the .vec files of the test fixtures",
    "tagger.Tagger.parameter_counts":
        "the parameter-tying accounting of acceptance criterion 7",
}


def _unreferenced(package_dir):
    defined, referenced = [], set()
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                            item.name.startswith("__")
                            and item.name.endswith("__")):
                        defined.append(
                            (f"{path.stem}.{node.name}.{item.name}", item.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return {qual for qual, name in defined if name not in referenced}


def test_every_definition_is_referenced_in_the_package():
    package_dir = pathlib.Path(zrxner.__file__).parent
    unreferenced = _unreferenced(package_dir)
    assert unreferenced - set(ALLOWED) == set(), "referenced by nothing in src"
    assert set(ALLOWED) - unreferenced == set(), "allowlisted but referenced"
