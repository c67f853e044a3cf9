"""Seeded random number generation.

All randomness in fixtures, generators, and the CLI flows through
:func:`default_rng`, which is backed by the counter-based Philox bit
generator so that seeded runs reproduce bit-identical streams across
platforms and numpy releases.
"""

import numpy as np

from .errors import ValidationError


def _seed(seed):
    """``seed`` as an int: a nonnegative integer (a Python or numpy int,
    never rounded through a float), else a :class:`ValidationError` naming
    it. A boolean is not a seed."""
    if (isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
            and seed >= 0):
        return int(seed)
    if isinstance(seed, np.generic):  # shown as the plain number
        seed = seed.item()
    raise ValidationError(f"seed={seed!r} is not a nonnegative integer")


def default_rng(seed=0):
    """Return a ``numpy.random.Generator`` seeded with Philox; ``seed`` is
    checked by :func:`_seed`, the one seed check of the package."""
    return np.random.Generator(np.random.Philox(_seed(seed)))
