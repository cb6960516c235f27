import sys

import pytest

from hsw.worklist import fill


def _chain(n):
    """Frame of the sum 0 + 1 + ... + n, one dependency per step."""
    if n == 0:
        return 0
    return (yield n - 1) + n


def test_deep_chain_under_low_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        memo = {}
        assert fill(memo, 5000, _chain) == 5000 * 5001 // 2
    finally:
        sys.setrecursionlimit(limit)
    assert len(memo) == 5001


def test_shared_dependency_is_computed_once():
    calls = []

    def steps(key):
        calls.append(key)
        if key == "leaf":
            return 1
        if key == "mid":
            return (yield "leaf") + 1
        return (yield "leaf") + (yield "mid")

    assert fill({}, "top", steps) == 3
    assert sorted(calls) == ["leaf", "mid", "top"]


def test_cycle_is_an_internal_error():
    def steps(n):
        return (yield (n + 1) % 3)

    with pytest.raises(RuntimeError, match="cycle"):
        fill({}, 0, steps)
