"""The library surface: every public top-level function or class in
``src/bosegas`` is reached from the command line, and every parameter with a
default is set by some caller in ``src/bosegas``.

The closure is by name: start from the body of ``cli.main``, collect every
name and attribute it mentions, add the body of every top-level definition
of that name in any module, and repeat.  A public definition the closure
never reaches has no caller outside the tests, so it belongs in ``tests/``
or nowhere.

A defaulted parameter (or a defaulted ``__init__`` field of a dataclass)
that no call in ``src/bosegas`` passes takes one value in every run the
program makes; it is a constant, or it selects a branch nothing uses.
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


# the program's input: the console script and perfbench/cli_child.py pass it
_PROGRAM_INPUT = "cli.main(argv)"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _field_default(stmt: ast.AnnAssign) -> bool | None:
    """Whether an ``__init__`` field has a default; None for a
    ``field(init=False)``."""
    value = stmt.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        keywords = {k.arg: k.value for k in value.keywords}
        init = keywords.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return None
        return "default" in keywords or "default_factory" in keywords
    return value is not None


def _defaulted(module: str, tree: ast.Module):
    """(label, callee name, position or None, keyword) of every defaulted
    parameter of a function or method, and of every defaulted ``__init__``
    field of a dataclass; a bound method's position does not count self."""
    bound = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef):
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in stmt.decorator_list)
                bound[stmt] = (f"{cls.name}.", 0 if static else 1)
        if _is_dataclass(cls):
            fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)
                      and isinstance(s.target, ast.Name)]
            fields = [(s.target.id, d) for s in fields
                      if (d := _field_default(s)) is not None]
            for i, (name, has_default) in enumerate(fields):
                if has_default:
                    yield f"{module}.{cls.name}.{name}", cls.name, i, name
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner, skip = bound.get(fn, ("", 0))
        args = fn.args.posonlyargs + fn.args.args
        first = len(args) - len(fn.args.defaults)
        for i, arg in enumerate(args[first:], first):
            yield f"{module}.{owner}{fn.name}({arg.arg})", fn.name, i - skip, arg.arg
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield f"{module}.{owner}{fn.name}({arg.arg})", fn.name, None, arg.arg


def _calls(node: ast.AST, cls: str | None = None, within: frozenset = frozenset()):
    """(callee name, call) for every call under ``node``, by the called
    name or attribute; inside a class body ``cls(...)`` calls that class.
    A call inside the body of a function of the callee's name is left out
    (``within`` holds the enclosing functions' names): a function that
    passes a parameter on to itself sets it for no other caller."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            name = cls if name == "cls" and cls else name
            if name not in within:
                yield name, child
        inner = child.name if isinstance(child, ast.ClassDef) else cls
        body = within | {child.name} if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else within
        yield from _calls(child, inner, body)


def defaulted_parameters(src: Path = SRC) -> list[tuple]:
    return [knob for path in sorted(src.glob("*.py"))
            for knob in _defaulted(path.stem, ast.parse(path.read_text()))]


def unset_parameters(src: Path = SRC) -> list[str]:
    """Labels of the defaulted parameters and fields that no call in
    ``src`` passes, by position, by keyword or through ``*``/``**``."""
    calls = {}
    for path in sorted(src.glob("*.py")):
        for name, call in _calls(ast.parse(path.read_text())):
            calls.setdefault(name, []).append(call)

    def passed(position, keyword, call):
        if any(k.arg in (keyword, None) for k in call.keywords):
            return True
        return position is not None and (
            position < len(call.args)
            or any(isinstance(a, ast.Starred) for a in call.args))

    return [label for label, name, position, keyword in defaulted_parameters(src)
            if label != _PROGRAM_INPUT
            and not any(passed(position, keyword, c) for c in calls.get(name, []))]


def test_every_defaulted_parameter_is_set_by_a_src_caller():
    unset = unset_parameters()
    assert not unset, f"{len(unset)} set only by tests or by nothing: {', '.join(unset)}"


def test_a_recursive_call_sets_no_default(tmp_path):
    # f passes x only to itself, g passes y from outside: only y is set
    (tmp_path / "m.py").write_text(
        "def f(n, x=1):\n"
        "    def inner():\n"
        "        return f(n - 1, x)\n"
        "    return f(n - 1, x) if n else inner\n\n\n"
        "def g(y=2):\n"
        "    return f(3) + g(y=y)\n\n\n"
        "def h():\n"
        "    return g(1)\n")
    assert unset_parameters(tmp_path) == ["m.f(x)"]


# --- every command-line option is read ---------------------------------------

def _reads(fn: ast.FunctionDef, param: str, defs: dict, seen: set) -> set:
    """The attributes ``<param>.<name>`` that ``fn`` reads, and that the
    functions of ``defs`` it passes ``param`` to read, by position or
    keyword."""
    if (fn.name, param) in seen:
        return set()
    seen.add((fn.name, param))
    out = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == param:
            out.add(node.attr)
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in defs):
            continue
        callee = defs[node.func.id]
        names = [a.arg for a in callee.args.posonlyargs + callee.args.args]
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Name) and arg.id == param and i < len(names):
                out |= _reads(callee, names[i], defs, seen)
        for kw in node.keywords:
            if isinstance(kw.value, ast.Name) and kw.value.id == param:
                out |= _reads(callee, kw.arg, defs, seen)
    return out


def unread_options(src: Path = SRC) -> list[str]:
    """``subcommand.dest`` of every option that the subcommand's ``cmd_*``
    function never reads as ``args.<dest>``, itself or through a helper it
    hands ``args`` to; an option nothing reads does nothing."""
    import argparse

    from bosegas import cli
    defs = {n.name: n for n in ast.parse((src / "cli.py").read_text()).body
            if isinstance(n, ast.FunctionDef)}
    unread = []
    for name, sub in cli._subparsers(cli.build_parser()).items():
        cmd = defs[sub.get_default("func").__name__]
        read = _reads(cmd, cmd.args.args[0].arg, defs, set())
        unread += [f"{name}.{a.dest}" for a in sub._actions
                   if not isinstance(a, argparse._HelpAction) and a.dest not in read]
    return unread


def test_every_option_is_read_by_its_subcommand():
    unread = unread_options()
    assert not unread, f"options that do nothing: {', '.join(unread)}"


# --- every parameter is read -------------------------------------------------

def unread_parameters(src: Path = SRC) -> list[str]:
    """``module:line name`` of every parameter of a function or lambda in
    ``src`` (``self`` and ``cls`` aside) that its body never reads; a
    parameter nothing reads makes every caller pass a value for nothing."""
    unread = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs \
                + [p for p in (a.vararg, a.kwarg) if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.stem}.py:{fn.lineno} {p.arg}" for p in params
                       if p.arg not in ("self", "cls") and p.arg not in read]
    return unread


def test_every_parameter_is_read():
    unread = unread_parameters()
    assert not unread, f"parameters nothing reads: {', '.join(unread)}"


# --- every import is read ----------------------------------------------------

def unused_imports(src: Path = SRC) -> list[str]:
    """``module:line name`` of every name that an import in ``src`` binds
    (``from __future__`` aside) and its module never reads; an import
    nothing reads costs start-up time and keeps dead code alive."""
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.stem}.py:{node.lineno} {name}" for name in names
                       if name not in read]
    return unused


def test_every_import_is_used():
    unused = unused_imports()
    assert not unused, f"imports nothing reads: {', '.join(unused)}"


# --- no module reads another's private names ---------------------------------

def private_reads(src: Path = SRC) -> list[str]:
    """``module:line sibling._name`` of every underscore name (dunders
    aside) that a module in ``src`` reads from another bosegas module, as
    an attribute of the module it imported or by ``from .sibling import
    _name``; a private name is the sibling's to change."""
    modules = {path.stem for path in src.glob("*.py")}
    private = lambda name: name.startswith("_") and not name.startswith("__")
    reads = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        siblings = set()
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            if node.module is None:
                siblings |= {a.asname or a.name for a in node.names
                             if a.name in modules}
            elif node.module in modules:
                reads += [f"{path.stem}:{node.lineno} {node.module}.{a.name}"
                          for a in node.names if private(a.name)]
        reads += [f"{path.stem}:{node.lineno} {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in siblings and private(node.attr)]
    return reads


def test_no_module_reads_another_modules_private_names():
    reads = private_reads()
    assert not reads, f"private names read across modules: {', '.join(reads)}"


# --- scipy enters at one place -----------------------------------------------

def scipy_imports(src: Path = SRC) -> list[str]:
    """``module.function`` (``module`` at top level) of every ``import
    scipy...`` or ``from scipy... import`` in ``src``, one per import."""
    found = []

    def walk(node, module, where):
        for child in ast.iter_child_nodes(node):
            names = [a.name for a in child.names] if isinstance(child, ast.Import) \
                else [child.module or ""] if isinstance(child, ast.ImportFrom) \
                and child.level == 0 else []
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(".".join([module, *where]))
            inner = [*where, child.name] if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else where
            walk(child, module, inner)

    for path in sorted(src.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, [])
    return found


def test_scipy_is_imported_in_one_place():
    # the flows' tridiagonal solve is the package's one scipy call
    assert scipy_imports() == ["flows._solve"]


def test_scipy_imports_are_found_at_any_depth(tmp_path):
    (tmp_path / "m.py").write_text(
        "import scipy\n"
        "import numpy, scipy.linalg as sl\n"
        "from . import scipy_like\n"
        "class C:\n"
        "    def f(self):\n"
        "        from scipy.special import j0\n"
        "        def g():\n"
        "            import scipy.sparse\n")
    assert scipy_imports(tmp_path) == ["m", "m", "m.C.f", "m.C.f.g"]


# --- oracles stay independent of the code they check -------------------------

def bosegas_imports(path: Path) -> list[str]:
    """``line module`` of every import, at any depth, in the module at
    ``path`` of a bosegas module: a relative import or one of ``bosegas``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno} {a.name}" for a in node.names
                      if a.name.split(".")[0] == "bosegas"]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "bosegas"):
            found.append(f"{node.lineno} {'.' * node.level}{node.module or ''}")
    return found


def test_oracles_import_no_bosegas_module():
    # an oracle that ran the package's code would check it against itself
    imports = bosegas_imports(SRC / "oracles.py")
    assert not imports, f"oracles imports bosegas code: {', '.join(imports)}"


def test_bosegas_imports_are_found_at_any_depth(tmp_path):
    (tmp_path / "m.py").write_text(
        "import numpy\n"
        "from . import flows\n"
        "def f():\n"
        "    from .quadrature import richardson\n"
        "    import os, bosegas.onedim as od\n"
        "    from bosegas import charged\n"
        "from numpy import bosegas\n")
    assert bosegas_imports(tmp_path / "m.py") == [
        "2 .", "4 .quadrature", "5 bosegas.onedim", "6 bosegas"]
