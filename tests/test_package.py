"""The package has no runtime dependency (``dependencies = []``), every
name it exports exists, and the README names only objects that exist."""

import ast
import importlib
import pathlib
import re
import sys

import sdres

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sdres"


def test_every_import_is_relative_sdres_or_stdlib():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] != "sdres"
                        and name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_every_dotted_name_in_the_readme_resolves():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    names = re.findall(r"`(sdres\.\w+\.\w+(?:\.\w+)*)", readme)
    missing = []
    for name in names:
        _, module, *attrs = name.split(".")
        obj = importlib.import_module(f"sdres.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert names and missing == []


def test_every_exported_name_resolves():
    missing = [name for name in sdres.__all__ if not hasattr(sdres, name)]
    assert sdres.__all__ and missing == []


def test_the_readme_stage_list_names_exported_objects():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Every stage is importable on its own:(.*?)\.\s",
                         readme, re.S)
    names = re.findall(r"`(\w+)`", sentence[1])
    assert names and set(names) <= set(sdres.__all__)
