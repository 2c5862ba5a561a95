"""Shared infrastructure for the synthetic dataset generators.

Every generator is seed-deterministic (same seed → byte-identical
dataset) and produces plain-dataclass records with ``to_records()``
views (lists of dicts) so the anonymization and analysis tooling can
consume them uniformly.

Nothing here is, or derives from, real leaked data: names, emails,
passwords and addresses are synthesised from small word lists, and IP
addresses are drawn from documentation/test ranges where realism
doesn't require otherwise.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence

from ..errors import DatasetError

__all__ = [
    "SeededGenerator",
    "zipf_choice",
    "chunked",
    "FIRST_NAMES",
    "LAST_NAMES",
    "MAIL_DOMAINS",
    "WORDS",
]

FIRST_NAMES = (
    "alex", "sam", "jordan", "casey", "morgan", "riley", "taylor",
    "jamie", "avery", "quinn", "harper", "rowan", "sage", "ellis",
    "marion", "devon", "reese", "finley", "emerson", "kai",
)

LAST_NAMES = (
    "smith", "jones", "garcia", "miller", "davis", "lopez", "wilson",
    "anderson", "thomas", "moore", "martin", "lee", "perez", "white",
    "clark", "lewis", "walker", "hall", "young", "king",
)

MAIL_DOMAINS = (
    "example.com", "example.org", "example.net", "mail.example",
    "inbox.example", "post.example",
)

WORDS = (
    "dragon", "monkey", "shadow", "silver", "purple", "rocket",
    "winter", "summer", "soccer", "hockey", "flower", "cookie",
    "banana", "sunshine", "freedom", "diamond", "thunder", "ginger",
    "pepper", "marble", "falcon", "breeze", "copper", "ember",
    "willow", "hazel", "comet", "pixel", "raven", "storm",
)

#: First octets :meth:`SeededGenerator.ipv4` draws from: unicast space
#: minus the most special-cased /8s. The order is part of the draw.
_FIRST_OCTETS = tuple(
    n for n in range(1, 224) if n not in (10, 127, 172, 192)
)


def chunked(
    records: Iterator[dict], chunk_size: int
) -> Iterator[list[dict]]:
    """Batch a flat record stream into lists of *chunk_size*.

    Chunking only batches — flattening the output reproduces the
    input stream exactly regardless of ``chunk_size``, which is the
    invariance the safeguard pipeline's determinism guarantee rests
    on. The final chunk may be short.
    """
    if chunk_size <= 0:
        raise DatasetError("chunk_size must be positive")
    chunk: list[dict] = []
    for record in records:
        chunk.append(record)
        if len(chunk) >= chunk_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def zipf_choice(
    rng: random.Random, items: Sequence, exponent: float = 1.1
) -> object:
    """Draw from *items* with a Zipf(rank) distribution.

    Password and username frequencies in real dumps are famously
    Zipf-like; the exponent defaults near the values reported for
    RockYou-scale corpora.
    """
    if not items:
        raise DatasetError("cannot sample from an empty sequence")
    if exponent <= 0:
        raise DatasetError("zipf exponent must be positive")
    weights = [1.0 / (rank**exponent) for rank in range(1, len(items) + 1)]
    return rng.choices(items, weights=weights, k=1)[0]


class SeededGenerator:
    """Base class holding the seeded RNG and low-level synthesisers.

    Generators that support streaming override :meth:`iter_records`
    to yield the dataset as fixed-size chunks of plain-dict records
    without materialising the whole database first. The contract:

    * the flattened concatenation of chunks is independent of
      ``chunk_size`` (chunking only batches, never reorders);
    * a fresh generator with the same seed and parameters yields the
      same records that :meth:`generate` would produce (identical RNG
      call order), so streaming and materialised paths agree;
    * every yielded record is a plain dict carrying a ``"_table"``
      key naming its source table.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    def iter_records(
        self, *, chunk_size: int = 1024, **params: object
    ) -> Iterator[list[dict]]:
        """Stream the dataset as chunks of record dicts.

        The base class has no streaming mode; subclasses with one
        (booter and password dumps) override this.
        """
        raise DatasetError(
            f"{type(self).__name__} does not support streaming "
            "generation"
        )

    # -- identity synthesis ------------------------------------------
    def username(self) -> str:
        """A synthetic account handle in a common style."""
        style = self.rng.randrange(3)
        first = self.rng.choice(FIRST_NAMES)
        if style == 0:
            return f"{first}{self.rng.randrange(10, 99)}"
        if style == 1:
            return f"{self.rng.choice(WORDS)}_{first}"
        return f"{first}.{self.rng.choice(LAST_NAMES)}"

    def full_name(self) -> str:
        """A synthetic human full name."""
        return (
            f"{self.rng.choice(FIRST_NAMES).title()} "
            f"{self.rng.choice(LAST_NAMES).title()}"
        )

    def email(self, username: str | None = None) -> str:
        local = username or self.username()
        return f"{local}@{self.rng.choice(MAIL_DOMAINS)}"

    def ipv4(self, *, public_looking: bool = True) -> str:
        """A synthetic IPv4 address.

        Draws from broad ranges while avoiding the most special-cased
        prefixes; these addresses never need to correspond to real
        hosts.
        """
        rng = self.rng
        first = rng.choice(_FIRST_OCTETS) if public_looking else 10
        return (
            f"{first}.{rng.randrange(256)}.{rng.randrange(256)}"
            f".{rng.randrange(1, 255)}"
        )

    def password(self) -> str:
        """A human-style password: word (+ mangling) per the PCFG
        observations of Weir et al."""
        base = str(zipf_choice(self.rng, WORDS))
        roll = self.rng.random()
        if roll < 0.35:
            return base
        if roll < 0.65:
            return f"{base}{self.rng.randrange(0, 100)}"
        if roll < 0.8:
            return f"{base.capitalize()}{self.rng.randrange(1, 10)}!"
        if roll < 0.9:
            leet = (
                base.replace("a", "4").replace("e", "3").replace("o", "0")
            )
            return leet
        return f"{base}{self.rng.choice(WORDS)}"

    def sentence(self, words: int = 8) -> str:
        """A synthetic filler sentence of about *words* words."""
        chosen = [
            self.rng.choice(WORDS) for _ in range(max(1, words))
        ]
        text = " ".join(chosen)
        return text.capitalize() + "."
