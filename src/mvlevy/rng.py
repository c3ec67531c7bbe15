"""Keyed random streams.

Every stochastic routine takes an explicit stream built from (seed, *key),
so the n-th draw of a stream is determined by (seed, key, n) alone and
results do not depend on scheduling or worker count.
"""

import numpy as np


def stream(seed, *key):
    """Return a numpy Generator keyed by (seed, *key); no key means key (0,).

    SeedSequence hashing gives independent, platform-stable streams for
    distinct keys; PCG64 keeps generation fast on the hot simulation path.
    A key that differs from another only by trailing zero words hashes to
    the same stream, so an extra word that tells streams apart must be
    nonzero.
    """
    words = [int(k) for k in key] or [0]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        [int(seed) & (2**64 - 1), *words])))
