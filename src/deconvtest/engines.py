"""The name by which the coefficient engines take each law's ``rule``.

The benchmark spans this name as ``engines.rule``, so ``nullmodel`` calls
it; the module goes when the benchmark re-points its span.
"""


def expectation_rule(dist, nodes: int, rate: float = 0.0):
    """``dist.rule(nodes, rate)``: ``sum(w * f(x)) = E[f(X) exp(-rate X)]``."""
    return dist.rule(nodes, rate)
