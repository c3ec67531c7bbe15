"""Keyed random streams.

Every stochastic routine takes an explicit stream built from (seed, *key),
so the n-th draw of a stream is determined by (seed, key, n) alone and
results do not depend on scheduling or worker count.

A simulation stream is keyed by its structure: stream(seed, *key, purpose),
where key locates the run (for a fixed-point iteration: replica, then
iteration) and purpose, always the last word, names what the stream draws.
The purpose words are nonzero, so no key can alias another through a
trailing zero word.
"""

import numpy as np

INIT = 1        # initial states of a frozen run
INCREMENTS = 2  # noise increments of a frozen run
RETRY = 3       # increments of the step-halving retry


def stream(seed, *key):
    """Return a numpy Generator keyed by (seed, *key); no key means key (0,).

    SeedSequence hashing gives independent, platform-stable streams for
    distinct keys; PCG64 keeps generation fast on the hot simulation path.
    The seed, taken modulo 2^64, enters as two 32-bit words (low, high):
    SeedSequence splits a larger integer into 32-bit words itself, so a
    one-word seed of 2^32 + s would be the stream of seed s with key word 1.
    Key words are small structure indices below 2^32.  A key that differs
    from another only by trailing zero words can hash to the same stream,
    so an extra word that tells streams apart must be nonzero.
    """
    seed = int(seed) & (2**64 - 1)
    words = [int(k) for k in key] or [0]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        [seed & (2**32 - 1), seed >> 32, *words])))
