"""Deterministic per-net RNG derivation.

Every Steiner oracle call receives its own :class:`random.Random` derived
from the router seed and a stable per-net key by an explicit formula.  This
replaces the old ``random.Random((seed, net_index).__hash__())`` scheme,
which depended on CPython's tuple hashing (randomised between interpreter
builds and not guaranteed stable across versions) and, worse, on one RNG
being *shared* by all nets of a round -- consuming randomness for net ``i``
changed the tree of net ``i + 1``, which makes parallel execution impossible.

Streams are keyed by the net's *name*, not its index: a net keeps its
private stream when other nets are inserted or removed around it (ECO
``remove_net`` index shifts) and when it is routed as part of a sub-netlist
(the shard layer's per-region netlists).  With one independent stream per
net, a net's tree is a pure function of its Steiner instance and
``(seed, name)``, so inline and pooled batches of
:mod:`repro.engine.executor` produce bit-identical trees, the re-route cache
of :mod:`repro.engine.cache` can prove that re-solving an unchanged instance
would reproduce the cached tree, and the replay memos of
:mod:`repro.serve.session` survive net-index shifts.

The index-keyed helpers are kept for callers that have no name (synthetic
single-instance experiments); the router and engine always use names.
"""

from __future__ import annotations

import hashlib
import random

__all__ = [
    "NET_STREAM_STRIDE",
    "net_stream_seed",
    "derive_net_rng",
    "net_name_key",
    "net_stream_seed_for_name",
    "derive_net_rng_for_name",
]

#: Multiplier separating per-net RNG streams; a prime much larger than any
#: realistic net count so distinct ``(seed, net_index)`` pairs cannot collide.
NET_STREAM_STRIDE = 1_000_003


def net_stream_seed(seed: int, net_index: int) -> int:
    """The integer seed of net ``net_index``'s private RNG stream."""
    return seed * NET_STREAM_STRIDE + net_index


def derive_net_rng(seed: int, net_index: int) -> random.Random:
    """A fresh, independent RNG for one net's oracle call (index-keyed)."""
    return random.Random(net_stream_seed(seed, net_index))


def net_name_key(name: str) -> int:
    """A stable 64-bit integer key of a net name.

    Uses BLAKE2b (not the built-in ``hash``, which is salted per process),
    so the key -- and therefore the net's RNG stream -- is identical across
    interpreter runs, worker processes, and daemon restarts.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def net_stream_seed_for_name(seed: int, name: str) -> int:
    """The integer seed of the named net's private RNG stream.

    The router seed selects a disjoint block of 2**64 stream keys and the
    name key selects the stream within the block, so streams are independent
    across both seeds and names.
    """
    return (seed * NET_STREAM_STRIDE + 1) * (1 << 64) + net_name_key(name)


def derive_net_rng_for_name(seed: int, name: str) -> random.Random:
    """A fresh, independent RNG for one net's oracle call (name-keyed)."""
    return random.Random(net_stream_seed_for_name(seed, name))
