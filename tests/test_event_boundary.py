"""The simulation kernel is the only module that builds raw events.

Callback walkers (the transfer walker, message sends, D2T participants)
schedule bare or pre-triggered events instead of running processes.  They
build them through the kernel's public surface -- ``Event.succeed``/``fail``/
``defuse``, ``repro.simkernel.bare_event`` and ``schedule_step`` -- and never
by writing an event's private state.  This scan keeps that boundary from
being undone quietly as more walkers are added.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
KERNEL = SRC / "simkernel"
PRIVATE_EVENT_FIELDS = {"_ok", "_value", "_defused"}


def _sources():
    files = sorted(p for p in SRC.rglob("*.py") if KERNEL not in p.parents)
    assert files, f"no sources under {SRC}"
    return files


def _targets(node):
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        else:
            yield target


def _violations(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    where = path.name if SRC not in path.parents else path.relative_to(SRC.parent)
    for node in ast.walk(tree):
        for target in _targets(node):
            if isinstance(target, ast.Attribute) and target.attr in PRIVATE_EVENT_FIELDS:
                yield f"{where}:{node.lineno} writes .{target.attr}"
        if isinstance(node, ast.ImportFrom) and node.module == "repro.cluster.network":
            if any(alias.name == "_step" for alias in node.names):
                yield f"{where}:{node.lineno} imports _step from repro.cluster.network"


def test_no_private_event_writes_outside_the_kernel():
    found = [v for path in _sources() for v in _violations(path)]
    assert not found, (
        "build events with Event.succeed/fail/defuse, "
        "repro.simkernel.bare_event or schedule_step instead:\n" + "\n".join(found)
    )


def test_the_scan_sees_a_write(tmp_path):
    walker = tmp_path / "walker.py"
    walker.write_text(
        "from repro.cluster.network import _step\n"
        "def fire(ev):\n"
        "    ev._ok, ev._value = False, None\n"
        "    ev._defused = True\n"
        "    ev.callbacks.append(print)\n"
    )
    assert list(_violations(walker)) == [
        "walker.py:1 imports _step from repro.cluster.network",
        "walker.py:3 writes ._value",
        "walker.py:3 writes ._ok",
        "walker.py:4 writes ._defused",
    ]
