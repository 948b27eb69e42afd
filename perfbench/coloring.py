"""Exact chromatic index of a small graph, in pure Python.

The output checks (``reference.py``) use it to count the colors of each
threshold level, and the speed gauge (``calibrate.py``) times it. It imports
nothing, so a process can load the gauge before it imports numpy or chromlc.
"""


def _colorable(edges, k):
    """Whether ``edges`` has a proper k-edge-coloring (most-constrained edge first)."""
    used = {}
    for u, v in edges:
        used[u] = used[v] = 0
    full = (1 << k) - 1
    remaining = set(range(len(edges)))

    def rec(high):
        if not remaining:
            return True
        best, best_free = None, None
        for i in remaining:
            u, v = edges[i]
            free = full & ~(used[u] | used[v])
            if best is None or free.bit_count() < best_free.bit_count():
                best, best_free = i, free
        u, v = edges[best]
        remaining.discard(best)
        for c in range(min(k, high + 2)):  # colors above high + 1 are symmetric
            bit = 1 << c
            if best_free & bit:
                used[u] |= bit
                used[v] |= bit
                if rec(max(high, c)):
                    return True
                used[u] &= ~bit
                used[v] &= ~bit
        remaining.add(best)
        return False

    return rec(-1)


def chromatic_index(edges) -> int:
    """Exact chromatic index: the max degree or one more (Vizing)."""
    if not edges:
        return 0
    degree = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    delta = max(degree.values())
    return delta if _colorable(list(edges), delta) else delta + 1
