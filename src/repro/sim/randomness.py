"""Seeded random streams for reproducible experiments.

Each stochastic component in a simulation (every traffic source, every
drop-decision, ...) draws from its *own* named stream.  Streams are derived
deterministically from a single experiment seed, so adding a new component
does not perturb the draws of existing ones — the classic "random stream
discipline" of network simulators, and the property that makes A/B scheduler
comparisons (Table 1/2: same arrivals, different scheduler) meaningful.

Where a component needs only a number or two *per flow* (an ECMP branch
choice, an on/off phase), a whole Mersenne generator per flow is all
initialisation and no draws; :class:`KeyedDraws` serves those from a
64-bit key instead.  Its array twin (:func:`stream_keys`,
:func:`keyed_words`, :func:`keyed_below`, :func:`keyed_uniforms`) serves
a whole population's streams at once in NumPy ``uint64``, word for word
the same numbers.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Sequence

_MASK64 = (1 << 64) - 1
#: splitmix64's increment and its two finaliser multipliers.
_GAMMA, _MIX1, _MIX2 = (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
)


def numpy_or_none():
    """NumPy, or ``None`` where it does not import.  The array twins
    below (and the population walk of :mod:`repro.net.fabric`) serve
    whole populations only when it does — the same rule as the fluid
    engine's ``backend="auto"``; there is no switch."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised on numpy-free CI
        return None
    return numpy


def stream_key(seed: int, purpose: str, name: str) -> int:
    """The 64-bit key of the ``(seed, purpose, name)`` draw stream.

    An 8-byte ``blake2b`` of ``"purpose:seed:name"`` — never ``hash()``,
    so the key is the same in every process whatever ``PYTHONHASHSEED``
    says.  ``seed`` may be any int (negative, beyond 64 bits); its
    decimal text is what is hashed.  ``purpose`` is a code constant
    without ``":"``, which keeps two purposes' keys apart for every
    seed and name.
    """
    return int.from_bytes(_key_digest(seed, purpose, name), "little")


def _key_digest(seed: int, purpose: str, name: str) -> bytes:
    return hashlib.blake2b(
        f"{purpose}:{seed}:{name}".encode("utf-8"), digest_size=8
    ).digest()


class KeyedDraws:
    """The draws of one ``(seed, purpose, name)`` stream: the
    :func:`stream_key` stepped by the splitmix64 mix (Steele, Lea &
    Flood's ``SplittableRandom`` finaliser), one 64-bit word per draw.

    A pure function of its three arguments and the number of draws
    taken so far, at about a fifth of the cost of seeding a
    ``random.Random`` per flow.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int, purpose: str, name: str):
        self._state = stream_key(seed, purpose, name)

    def word(self) -> int:
        """The next 64-bit word."""
        self._state = z = (self._state + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def draw(self, n: int) -> int:
        """The next draw from ``range(n)`` (multiply-shift; the bias is
        below ``n / 2**64``)."""
        return (self.word() * n) >> 64

    def uniform(self) -> float:
        """The next draw from ``[0, 1)``, on the 53-bit grid
        ``random.random`` uses."""
        return (self.word() >> 11) / 9007199254740992.0


# -- The array twin: many streams at once, word for word ---------------


def stream_keys(seed: int, purpose: str, names: Sequence[str]):
    """:func:`stream_key` of every name, as one NumPy ``uint64`` array
    (the digests are read as little-endian words in one pass).  The
    shared ``"purpose:seed:"`` prefix is hashed once and each name
    continues a copy of that state: the same digest as hashing the
    whole text."""
    np = numpy_or_none()
    prefix = hashlib.blake2b(f"{purpose}:{seed}:".encode("utf-8"), digest_size=8)
    digests = []
    for name in names:
        state = prefix.copy()
        state.update(name.encode("utf-8"))
        digests.append(state.digest())
    return np.frombuffer(b"".join(digests), dtype="<u8").astype(np.uint64)


def keyed_words(keys, index):
    """Word ``index`` (1 = the first) of every stream whose
    :func:`stream_key` is in ``keys`` — what ``index`` calls of
    :meth:`KeyedDraws.word` return, for a whole NumPy ``uint64`` array
    of keys at once (``index`` a scalar or one per key)."""
    np = numpy_or_none()
    u64 = np.uint64
    z = keys + np.asarray(index, dtype=u64) * u64(_GAMMA)
    z = (z ^ (z >> u64(30))) * u64(_MIX1)
    z = (z ^ (z >> u64(27))) * u64(_MIX2)
    return z ^ (z >> u64(31))


def keyed_below(words, n):
    """:meth:`KeyedDraws.draw` of each word: ``(word * n) >> 64``, from
    32-bit halves so no product leaves ``uint64`` (``n <= 2**32``)."""
    np = numpy_or_none()
    u64 = np.uint64
    n = np.asarray(n, dtype=u64)
    low = ((words & u64(0xFFFFFFFF)) * n) >> u64(32)
    return ((words >> u64(32)) * n + low) >> u64(32)


def keyed_uniforms(
    seed: int, purpose: str, names: Sequence[str]
) -> List[float]:
    """``KeyedDraws(seed, purpose, name).uniform()`` for every name, in
    order — through the array twin when NumPy imports."""
    np = numpy_or_none()
    if np is None:
        return [KeyedDraws(seed, purpose, name).uniform() for name in names]
    top = keyed_words(stream_keys(seed, purpose, names), 1) >> np.uint64(11)
    return (top / 9007199254740992.0).tolist()


class StreamRandom(random.Random):
    """A ``random.Random`` subclass tagged with the name of its stream."""

    def __init__(self, seed_material: bytes, name: str):
        self.stream_name = name
        super().__init__(int.from_bytes(seed_material, "big"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StreamRandom {self.stream_name!r}>"

    # --- distributions used by the paper's workload ------------------
    def geometric(self, mean: float) -> int:
        """Geometric variate with the given mean, support {1, 2, ...}.

        The Appendix generates "a geometrically distributed random number of
        packets" per burst with mean B; a burst always has at least one
        packet, so the support starts at 1.  With success probability
        p = 1/mean, E[X] = mean.
        """
        if mean < 1.0:
            raise ValueError(f"geometric mean must be >= 1, got {mean}")
        if mean == 1.0:
            return 1
        p = 1.0 / mean
        # Inverse-CDF sampling: X = ceil(ln(U) / ln(1-p)).
        u = 1.0 - self.random()  # in (0, 1]
        import math

        return max(1, math.ceil(math.log(u) / math.log(1.0 - p)))

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean (idle periods, Poisson gaps)."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be > 0, got {mean}")
        return self.expovariate(1.0 / mean)


class RandomStreams:
    """Factory of named, independent, deterministic random streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, StreamRandom] = {}

    def stream(self, name: str) -> StreamRandom:
        """Return the stream for ``name``, creating it on first use.

        The stream's seed is SHA-256(experiment seed || name): independent
        streams regardless of creation order.
        """
        if name not in self._streams:
            material = hashlib.sha256(
                f"{self.seed}:{name}".encode("utf-8")
            ).digest()[:8]
            self._streams[name] = StreamRandom(material, name)
        return self._streams[name]

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RandomStreams seed={self.seed} open={len(self._streams)}>"
