"""Outside the task table, ``training.py`` and ``sdp.py`` name no
framework: an AST scan of the two modules.

Each framework's behaviour lives on its ``Task`` in ``training.TASKS``;
the code around the tasks loops over the table or looks a task up in
it.  A string literal equal to a name of ``graphs.FRAMEWORKS`` (compared,
used as a key or passed), or a read of ``SDP_PAIR``, is a per-framework
switch unless it stands in a ``Task`` class, in the ``TASKS`` table or in
one of the top-level definitions listed below.
"""

import ast
from pathlib import Path

import pytest

from mrparse.graphs import FRAMEWORKS

SRC = Path(__file__).resolve().parent.parent / "src" / "mrparse"

ALLOWED = {
    "training.py": {
        "TASKS",
        "VAL_SIZES",      # the carve-out sizes, one row per framework
        "split_dataset",  # the sharing rule between frameworks
        # the DM -> EDS converter and the bundle kinds
        "EdsModel", "_anchor_items", "train_eds", "_load_bundle",
    },
    "sdp.py": set(),
}


def _names(top):
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return {top.name}
    if isinstance(top, (ast.Assign, ast.AnnAssign)):
        targets = top.targets if isinstance(top, ast.Assign) else [top.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def framework_switches(source, allowed):
    """(line, framework name) of each place outside the task classes and
    the ``allowed`` top-level definitions that names a framework."""
    tasks = {"Task"}
    hits = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef) and (top.name in tasks or any(
                isinstance(b, ast.Name) and b.id in tasks for b in top.bases)):
            tasks.add(top.name)
            continue
        if _names(top) & allowed:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value in FRAMEWORKS:
                hits.append((node.lineno, node.value))
            elif isinstance(node, ast.Name) and node.id == "SDP_PAIR":
                hits.append((node.lineno, "SDP_PAIR"))
    return hits


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_frameworks_are_named_only_by_their_tasks(module):
    source = (SRC / module).read_text(encoding="utf-8")
    assert framework_switches(source, ALLOWED[module]) == []


def test_scan_flags_a_switch_outside_the_tasks():
    src = ('class Task:\n    kind = "dm"\n'
           'class AmrTask(Task):\n    def f(self, s):\n        return s.graphs["amr"]\n'
           'TASKS = {"ucca": None}\n'
           'def build(by_fw):\n    if by_fw.get("psd"):\n        return 1\n'
           'def frame(framework):\n    return framework == "dm" or framework in SDP_PAIR\n'
           'def kind():\n    return "dm.frame", "multi"\n')
    assert framework_switches(src, {"TASKS"}) == [
        (8, "psd"), (11, "dm"), (11, "SDP_PAIR")]
