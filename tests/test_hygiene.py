"""Source hygiene of the package, checked with the standard library's ast:
no module imports a name it never uses, every private name that a module
or class body binds is referenced somewhere in the package, and every
private or module-qualified name that the text cites as ``name`` or
:func:`name`, or README.md as `name`, exists.  Also, every name the traced
benchmark run patches still exists, and README.md's python example runs."""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "morreylab"
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SOURCES = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
TREES = {name: ast.parse(text, name) for name, text in SOURCES.items()}
MODULES = {name.removesuffix(".py"): name for name in TREES}
README = SRC.parents[1] / "README.md"


def _read_names(tree: ast.AST) -> set[str]:
    """Names read anywhere in the tree, with the identifier strings that
    stand for names: ``__all__`` entries and quoted annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def test_no_unused_import():
    unused = []
    for name, tree in TREES.items():
        if name == "__init__.py":  # its imports are the package's exports
            continue
        read = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in read:
                        unused.append(f"{name}: {bound}")
    assert not unused


def test_no_unreferenced_private_name():
    referenced = set()
    for tree in TREES.values():
        referenced |= _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unreferenced = []
    for name, tree in TREES.items():
        classes = [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        for body in (tree.body, *classes):  # methods and cached properties too
            for private in _bound_names(body):
                if private.startswith("_") and not private.startswith("__") and private not in referenced:
                    unreferenced.append(f"{name}: {private}")
    assert not unreferenced


def _bound_names(body: list[ast.stmt]) -> dict[str, ast.stmt]:
    """Names a module or class body binds, each with its statement."""
    bound = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update((t.id, node) for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(((alias.asname or alias.name).split(".")[0], node) for alias in node.names)
    return bound


def _resolves(module: str, path: str) -> bool:
    """Whether the dotted ``path`` is bound in ``module``, through class bodies."""
    node = TREES[module]
    for part in path.split(".") if path else []:
        node = _bound_names(node.body).get(part) if hasattr(node, "body") else None
        if node is None:
            return False
    return True


def test_docstring_references_resolve():
    # ``stepfn._pair_max`` in any module, or ``_charge`` in the module that
    # defines it: a cited name that was deleted or renamed misleads the reader
    cited = re.compile(r"``([A-Za-z_][\w.]*)``|:(?:func|class|meth|attr):`([A-Za-z_][\w.]*)`")
    unresolved = []
    for name, text in SOURCES.items():
        for match in cited.finditer(text):
            ref = match.group(1) or match.group(2)
            head, _, rest = ref.partition(".")
            if head in MODULES:
                ok = _resolves(MODULES[head], rest)
            elif ref.startswith("_") and not ref.startswith("__"):
                ok = _resolves(name, ref)
            else:
                continue
            if not ok:
                unresolved.append(f"{name}: {ref}")
    assert not unresolved


def test_readme_references_resolve():
    # `stepfn._pair_max` (or `morreylab.stepfn`) in the module it names, and
    # `_pair_max` in some module
    unresolved = []
    for ref in re.findall(r"`([A-Za-z_][\w.]*)`", README.read_text()):
        ref = ref.removeprefix("morreylab.")
        head, _, rest = ref.partition(".")
        if head in MODULES:
            ok = _resolves(MODULES[head], rest)
        elif ref.startswith("_") and not ref.startswith("__"):
            ok = any(_resolves(module, ref) for module in TREES)
        else:
            continue
        if not ok:
            unresolved.append(ref)
    assert not unresolved


def test_traced_names_resolve():
    # a deleted name would otherwise show only as a crash of the traced run
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for label, (module, attr) in {**spans.SPANNED, **spans.COUNTED}.items():
        owner = importlib.import_module(f"morreylab.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(label)
    assert not missing


def test_readme_python_blocks_run():
    # the library example runs as printed and gives the values its comments state
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    scope: dict = {}
    for block in blocks:
        exec(block, scope)
    assert scope["mf"] == 0.5
    assert scope["mfs"].tolist() == [1.0, 0.5]
    assert scope["est"].value <= scope["est"].upper_bound
    env, lower, upper = scope["env"], scope["lower"], scope["upper"]
    assert env.lower(0.5) <= env.upper(0.5)
    assert lower[0] <= upper[0] and scope["capped"] == 0
