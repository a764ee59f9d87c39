"""Every Python child a test starts writes no bytecode.

Tier-1 runs with ``PYTHONDONTWRITEBYTECODE=1``, which reaches a child
only through an inherited environment.  A child started with
``sys.executable`` and an environment not copied from ``os.environ``
must pass ``-B`` instead: otherwise it leaves ``.pyc`` files under
``src/``, and every later cold start from that tree skips compiling,
which makes it look faster than a clean clone of the same code.
"""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def python_children(tree: ast.AST):
    """Each call in ``tree`` whose first argument is a list literal
    starting with ``sys.executable``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and node.args
            and isinstance(node.args[0], ast.List)
            and node.args[0].elts
            and ast.unparse(node.args[0].elts[0]) == "sys.executable"
        ):
            yield node


def writes_no_bytecode(call: ast.Call, tree: ast.AST) -> bool:
    """The child gets ``-B``, or an environment built from ``os.environ``
    (directly or through a name assigned from it in the same module)."""
    argv = call.args[0]
    assert isinstance(argv, ast.List)
    if any(isinstance(e, ast.Constant) and e.value == "-B" for e in argv.elts):
        return True
    env = next((k.value for k in call.keywords if k.arg == "env"), None)
    if env is None:
        return True
    sources = [env]
    if isinstance(env, ast.Name):
        sources += [
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == env.id for t in node.targets)
        ]
    return any("os.environ" in ast.unparse(source) for source in sources)


def offenders(source: str) -> list[int]:
    tree = ast.parse(source)
    return [
        call.lineno
        for call in python_children(tree)
        if not writes_no_bytecode(call, tree)
    ]


def test_every_python_child_writes_no_bytecode():
    spawning = {}
    found = []
    for path in sorted(TESTS.rglob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        spawning[path.name] = sum(1 for _ in python_children(tree))
        found += [f"{path.relative_to(TESTS)}:{line}" for line in offenders(source)]
    assert found == []
    # The scan sees the spawns it is about.
    assert spawning["test_recovery.py"] == 1
    assert sum(spawning.values()) >= 10


def test_the_scan_flags_a_clean_environment_without_dash_b():
    clean = (
        "subprocess.Popen([sys.executable, '-m', 'repro.service'],"
        " env={'PYTHONPATH': src})\n"
    )
    assert offenders(clean) == [1]
    assert offenders(clean.replace("'-m'", "'-B', '-m'")) == []
    assert offenders("env = dict(os.environ)\nrun([sys.executable], env=env)\n") == []
    assert offenders("run([sys.executable, '-c', code])\n") == []
