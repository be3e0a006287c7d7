"""Deterministic counter-based random numbers.

Every randomized routine in this package draws from :class:`RngState`, a
tiny counter-based generator built on the splitmix64 finalizer.  Output i
of a stream is a pure function of (seed, stream, i), so runs are bit
reproducible across platforms and processes, substreams never overlap by
construction, and the whole state is two integers.

Algorithm, with all arithmetic mod 2**64:

    GAMMA = 0x9E3779B97F4A7C15
    mix(z): z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
            z ^= z >> 27;  z *= 0x94D049BB133111EB
            z ^= z >> 31;  return z
    key(seed, stream) = mix(seed ^ mix(stream + 1))
    output(i)         = mix(key + (i + 1) * GAMMA)      # i = 0, 1, 2, ...

``uniform`` maps the top 53 bits of an output word to a double in [0, 1),
i.e. (output >> 11) * 2**-53.  Division by a power of two is exact in IEEE
arithmetic, so the float stream is as reproducible as the integer one.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _mix(z):
    """splitmix64 finalizer on python ints (scalar reference path)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def _mix_u64(z):
    """The same finalizer vectorized over uint64 arrays."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MUL2)
    z ^= z >> np.uint64(31)
    return z


@dataclass
class RngState:
    """Counter-based generator; see the module docstring for the algorithm."""

    seed: int
    stream: int = 0
    counter: int = 0
    _key: int = field(init=False, repr=False)

    def __post_init__(self):
        self.seed = int(self.seed) & _MASK
        self.stream = int(self.stream) & _MASK
        self.counter = int(self.counter)
        self._key = _mix(self.seed ^ _mix((self.stream + 1) & _MASK))

    def spawn(self, stream):
        """Fresh substream of the same seed; disjoint from every other stream."""
        return RngState(self.seed, stream=stream)

    def next_u64(self):
        self.counter += 1
        return _mix((self._key + self.counter * _GAMMA) & _MASK)

    def uniform(self, n=None):
        """Doubles in [0, 1).  Scalar when ``n`` is None, else shape (n,)."""
        if n is None:
            return (self.next_u64() >> 11) * 2.0**-53
        n = int(n)
        if n < 0:
            raise DomainError(f"cannot draw {n} values")
        start = (self.counter + 1) & _MASK
        self.counter += n
        with np.errstate(over="ignore"):
            idx = np.uint64(start) + np.arange(n, dtype=np.uint64)
            bits = _mix_u64(np.uint64(self._key) + idx * np.uint64(_GAMMA))
        return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53
