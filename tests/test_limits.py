"""One owner for every resource cap: listdec.limits holds the cap values and
is the only module that raises ResourceLimitError, and the chunk size is read
from it at call time.  Likewise one owner for the float decision margin: only
listdec.precise names RECHECK_MARGIN.  Every epsilon is checked by one helper,
limits.check_epsilon, and every functools cache has a finite maxsize."""

from __future__ import annotations

import ast
import importlib
import math
import re
from pathlib import Path

import pytest

from listdec import limits
from listdec.errors import InvalidParameterError

SRC = Path(limits.__file__).resolve().parent
CAPS = {"WORD_BITS", "MAX_WORDS", "ENUM_MAX_WORDS", "SCATTER_MAX", "PAIR_CHECK_MAX_BITS", "CHUNK_PAIRS"}
# A cap by its name: a bound, a chunk size or a bit width.
CAP_NAME = re.compile(r"MAX|CAP|LIMIT|CHUNK|BITS")
# Bounds that are not resource caps: the certified loop's precision ceiling
# (it raises PrecisionError) and the guided builder's default retry budget.
NOT_CAPS = {("precise", "MAX_PREC"), ("constructors", "DEFAULT_MAX_RETRIES")}


def modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", getattr(exc, "attr", None))


def test_resource_limit_error_raised_only_in_limits():
    raisers = {
        name
        for name, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and raised_name(node) == "ResourceLimitError"
    }
    assert raisers == {"limits"}


def test_no_other_module_assigns_a_cap():
    assigned = {}
    for name, tree in modules():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                if isinstance(target, ast.Name) and CAP_NAME.search(target.id):
                    assigned.setdefault(name, set()).add(target.id)
    assert assigned.pop("limits") == CAPS
    assert {(name, cap) for name, caps in assigned.items() for cap in caps} == NOT_CAPS


def test_only_precise_names_the_recheck_margin():
    naming = {
        name
        for name, tree in modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "RECHECK_MARGIN")
        or (isinstance(node, ast.Attribute) and node.attr == "RECHECK_MARGIN")
        or (isinstance(node, ast.alias) and node.name == "RECHECK_MARGIN")
    }
    assert naming == {"precise"}


def test_chunk_size_read_only_from_limits_at_call_time():
    # A name imported from limits, or a parameter default, is bound at import,
    # so a patched limits.CHUNK_PAIRS would not reach that code.
    binding = {
        name
        for name, tree in modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.alias) and node.name == "CHUNK_PAIRS")
        or (isinstance(node, ast.arg) and node.arg == "chunk_pairs")
    }
    assert binding == set()


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_epsilon_must_be_finite_and_positive(epsilon):
    with pytest.raises(InvalidParameterError):
        limits.check_epsilon(epsilon)
    limits.check_epsilon(1e-300)


def cache_wrappers():
    """(qualified name, wrapper) for every functools cache bound at module or
    class level in a module of listdec."""
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":
            continue  # importing it runs the CLI; see the test below
        module = importlib.import_module("listdec" if path.stem == "__init__" else f"listdec.{path.stem}")
        classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
        for scope in (module, *classes):
            for value in vars(scope).values():
                value = getattr(value, "__func__", value)  # staticmethod, classmethod
                if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                    yield f"{module.__name__}.{value.__qualname__}", value


def test_every_cache_is_bounded():
    # An lru_cache with maxsize=None (or functools.cache) holds every key it
    # is ever asked for, for the life of the process.
    wrappers = dict(cache_wrappers())
    known = {"gf2.ball_masks", "rankmetric.rank_ball_masks", "listsize.power_bracket",
             "listsize.potential", "listsize.potential_powers"}
    assert {f"listdec.{name}" for name in known} <= set(wrappers)
    assert {name for name, fn in wrappers.items() if fn.cache_info().maxsize is None} == set()
    main = ast.parse((SRC / "__main__.py").read_text())
    named = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(main)}
    assert not named & {"lru_cache", "cache"}
