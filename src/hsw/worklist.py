"""Memoised recursions run from an explicit stack.

A recursive memoised function is written as a generator ``steps(key)``: it
yields each key whose value it needs, receives that value back, and returns
the value at ``key``.  ``fill`` runs these generators from an explicit stack
of suspended frames, so the depth of a dependency chain is bounded by memory
and not by ``sys.getrecursionlimit()``.

>>> def fib(n):
...     if n < 2:
...         return n
...     return (yield n - 1) + (yield n - 2)
>>> fill({}, 3000, fib) % 1000
0
"""

from __future__ import annotations


def fill(memo: dict, key, steps):
    """memo[key], after filling it and every value it depends on.

    Each value a frame needs must not depend on that frame's own key; a
    dependency cycle raises RuntimeError.  No stored value may be None.
    """
    value = memo.get(key)
    if value is not None:
        return value
    stack = [(key, steps(key))]
    open_keys = {key}
    while stack:
        top, frame = stack[-1]
        try:
            need = frame.send(value)
        except StopIteration as done:
            value = memo[top] = done.value
            stack.pop()
            open_keys.discard(top)
            continue
        value = memo.get(need)
        if value is None:
            if need in open_keys:
                raise RuntimeError(f"dependency cycle through {need!r}")
            stack.append((need, steps(need)))
            open_keys.add(need)
    return value
