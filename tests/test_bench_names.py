"""Every name the benchmark worker wraps for tracing exists in ``sdres``.

``bench/worker.py`` replaces module attributes by name at run time, so a
rename inside ``src/`` would otherwise break only the traced bench run.
The file is read with ``ast``, not imported or changed.
"""

import ast
import importlib
import pathlib

WORKER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "worker.py"


def traced_names():
    for node in ast.parse(WORKER.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TRACED"]):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/worker.py defines no TRACED tuple")


def test_every_traced_name_resolves():
    pairs = traced_names()
    assert pairs
    missing = []
    for owner, name in pairs:
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        if cls:
            obj = getattr(obj, cls, None)
        if obj is None or not callable(getattr(obj, name, None)):
            missing.append(f"{owner}.{name}")
    assert missing == []
