"""Deterministic counter-based random number generation.

Every source of randomness in a simulation hangs off one seeded root
generator. Streams are derived by label, so the draw order of one node
never perturbs another and identical (scenario, seed) pairs replay
bit-identically regardless of host or process.
"""

from __future__ import annotations

import hashlib

MAX_SEED = 2**64 - 1  # a seed is drawn on as 8 bytes


class Rng:
    """Counter-mode generator over BLAKE2b with labelled substreams."""

    __slots__ = ("_key", "_counter", "_buf", "_pos")

    def __init__(self, seed: int | bytes, label: str = ""):
        if isinstance(seed, int):
            seed = seed.to_bytes(8, "big", signed=False)
        self._key = hashlib.blake2b(label.encode(), key=seed, digest_size=32).digest()
        self._counter = 0
        self._buf = b""
        self._pos = 0

    def state(self) -> tuple[bytes, int, bytes, int]:
        """(stream key, counter, buffer, position): everything the draws
        to come depend on. A fresh stream has counter 0 and no buffer."""
        return (self._key, self._counter, self._buf, self._pos)

    def set_state(self, state: tuple[bytes, int, bytes, int]) -> None:
        self._key, self._counter, self._buf, self._pos = state

    def spawn(self, label: str) -> "Rng":
        """Derive an independent stream; draws here never affect the child."""
        return Rng(self._key, label)

    def _refill(self) -> None:
        self._buf = hashlib.blake2b(
            self._counter.to_bytes(8, "big"), key=self._key, digest_size=64
        ).digest()
        self._counter += 1
        self._pos = 0

    def u64(self) -> int:
        if self._pos + 8 > len(self._buf):
            self._refill()
        v = int.from_bytes(self._buf[self._pos : self._pos + 8], "big")
        self._pos += 8
        return v

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.u64() >> 11) * (2.0 ** -53)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), free of modulo bias; any size of n."""
        if n <= 0:
            raise ValueError("randrange() bound must be positive")
        nbits = n.bit_length()
        nbytes = (nbits + 7) // 8
        shift = nbytes * 8 - nbits
        while True:
            v = int.from_bytes(self.bytes(nbytes), "big") >> shift
            if v < n:
                return v

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    def bytes(self, n: int) -> bytes:
        pos = self._pos
        if pos + n <= len(self._buf):
            self._pos = pos + n
            return self._buf[pos : pos + n]
        out = bytearray()
        while len(out) < n:
            if self._pos >= len(self._buf):
                self._refill()
            take = min(len(self._buf) - self._pos, n - len(out))
            out += self._buf[self._pos : self._pos + take]
            self._pos += take
        return bytes(out)
