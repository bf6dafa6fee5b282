"""The library surface: every public top-level function or class in
``src/bosegas`` is reached from the command line.

The closure is by name: start from the body of ``cli.main``, collect every
name and attribute it mentions, add the body of every top-level definition
of that name in any module, and repeat.  A public definition the closure
never reaches has no caller outside the tests, so it belongs in ``tests/``
or nowhere.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bosegas"


def unreached_definitions(src: Path = SRC) -> list[str]:
    defs, public = {}, []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
                if not node.name.startswith("_"):
                    public.append((path.stem, node.name))
    main = [n for n in ast.parse((src / "cli.py").read_text()).body
            if isinstance(n, ast.FunctionDef) and n.name == "main"]
    seen, stack = set(), main
    while stack:
        for sub in ast.walk(stack.pop()):
            name = sub.id if isinstance(sub, ast.Name) else \
                sub.attr if isinstance(sub, ast.Attribute) else None
            if name is not None and name not in seen:
                seen.add(name)
                stack += defs.get(name, [])
    return [f"{module}.{name}" for module, name in public if name not in seen]


def test_every_public_definition_is_reached_from_cli_main():
    unreached = unreached_definitions()
    assert not unreached, f"{len(unreached)} reached only from tests: {', '.join(unreached)}"
