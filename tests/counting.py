"""Count the `MixedStrategy`s a block of code builds.

A plain module, so the test modules and the CI smoke step (which must not
load pytest's imports) share one counter.
"""

from __future__ import annotations

import contextlib

from nashcycles.games import MixedStrategy


@contextlib.contextmanager
def strategies_made():
    """Yield a list that gets the owner of every `MixedStrategy` built
    inside the block, by the constructor or by `_spread` (which does not
    call the constructor, and which `from_weights` and an entry's `p` and
    `q` call)."""
    made = []
    saved = vars(MixedStrategy)["__post_init__"], vars(MixedStrategy)["_spread"]
    post_init, spread = MixedStrategy.__post_init__, MixedStrategy._spread

    def counting(self):
        made.append(self.owner)
        post_init(self)

    def counting_spread(cls, *args):
        strategy = spread(*args)
        made.append(strategy.owner)
        return strategy

    MixedStrategy.__post_init__ = counting
    MixedStrategy._spread = classmethod(counting_spread)
    try:
        yield made
    finally:
        MixedStrategy.__post_init__, MixedStrategy._spread = saved
