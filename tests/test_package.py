import ast
from pathlib import Path

import ewselect


def test_star_import_matches_the_package_imports():
    namespace = {}
    exec("from ewselect import *", namespace)
    names = ewselect.__all__
    assert len(set(names)) == len(names)
    assert all(name in namespace for name in names)
    tree = ast.parse(Path(ewselect.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert set(names) == imported
