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
64-bit key instead.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

_MASK64 = (1 << 64) - 1


def stream_key(seed: int, purpose: str, name: str) -> int:
    """The 64-bit key of the ``(seed, purpose, name)`` draw stream.

    An 8-byte ``blake2b`` of ``"purpose:seed:name"`` — never ``hash()``,
    so the key is the same in every process whatever ``PYTHONHASHSEED``
    says.  ``seed`` may be any int (negative, beyond 64 bits); its
    decimal text is what is hashed.  ``purpose`` is a code constant
    without ``":"``, which keeps two purposes' keys apart for every
    seed and name.
    """
    return int.from_bytes(
        hashlib.blake2b(
            f"{purpose}:{seed}:{name}".encode("utf-8"), digest_size=8
        ).digest(),
        "little",
    )


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
        self._state = z = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def draw(self, n: int) -> int:
        """The next draw from ``range(n)`` (multiply-shift; the bias is
        below ``n / 2**64``)."""
        return (self.word() * n) >> 64

    def uniform(self) -> float:
        """The next draw from ``[0, 1)``, on the 53-bit grid
        ``random.random`` uses."""
        return (self.word() >> 11) / 9007199254740992.0


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
