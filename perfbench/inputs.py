"""Pieces of the benchmark's inputs shared by its workloads.

The seed of a run only renames things; every name has the same length
whatever the seed, so string hashing and comparison cost the same.
"""

import random
import string


class Namer:
    """Fresh names: a prefix plus `length` letters drawn from the seeded generator."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.used = set()

    def __call__(self, prefix, length=5):
        while True:
            name = prefix + "".join(self.rng.choice(string.ascii_lowercase) for _ in range(length))
            if name not in self.used:
                self.used.add(name)
                return name


def compose_perm(g, f):
    """The permutation g after f, both as tuples of images."""
    return tuple(g[f[k]] for k in range(len(f)))
