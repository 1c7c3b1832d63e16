"""Every top-level function and class of the package has a caller in the
package, outside its own body and the __init__ exports, or a stated reason to
stay.  A name that only the tests reach belongs in the tests' oracle modules,
or nowhere.  perfbench/ is not read here, so that the benchmark harness never
has to change with this list."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

from listdec import limits

SRC = Path(limits.__file__).resolve().parent
PERFBENCH = "called by perfbench, whose files change only with the benchmark"
CLAIM = "a paper-claim check the acceptance tests call; ROADMAP item 5 gives it a command"
CALLED_FROM_OUTSIDE = {
    "rankmetric.certify_rank": PERFBENCH,
    "rankmetric.check_rank_potential_step": PERFBENCH,
    "rankmetric.enumerate_rank_ball": PERFBENCH,
    "counting.check_rank_ball_bounds": CLAIM,
    "secondmoment.check_rank_rate_bound": CLAIM,
    "listsize.max_envelope_steps": CLAIM,
}


def references(tree: ast.AST) -> Counter:
    """How often each name is read, as a bare name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_library_name_has_a_caller_or_a_reason():
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    total = sum((references(tree) for tree in trees.values()), Counter())
    uncalled = {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and total[node.name] == references(node)[node.name]
    }
    assert uncalled <= set(CALLED_FROM_OUTSIDE)
