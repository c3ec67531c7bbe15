"""Keyed random streams.

Every stochastic routine takes an explicit stream built from (seed, stream_id),
so the n-th draw of a stream is determined by (seed, stream_id, n) alone and
results do not depend on scheduling or worker count.
"""

import numpy as np


def stream(seed, stream_id=0):
    """Return a numpy Generator keyed by (seed, stream_id).

    SeedSequence hashing gives independent, platform-stable streams for
    distinct keys; PCG64 keeps generation fast on the hot simulation path.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed) & (2**64 - 1), int(stream_id)])))
