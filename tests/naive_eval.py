"""The fast-growing hierarchy by its definition, for tests to check the
cutoff-aware kernel against."""


def naive_iter(n, i, x, budget):
    """F_n^(i)(x) by the definition F_{n+1}(x) = F_n^(x)(x), F_0^(i)(x) = x + i,
    or None once an intermediate passes budget (F_n(x) >= x, so the value
    does too)."""
    if n == 0:
        return x + i if x + i <= budget else None
    for _ in range(i):
        x = naive_iter(n - 1, x, x, budget)
        if x is None:
            return None
    return x
