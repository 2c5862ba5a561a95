"""Synthetic password-dump generator (substitute for §4.2 datasets).

Generates dumps with the statistical shape the surveyed password
papers rely on — Zipf-like password popularity, human mangling
patterns, cross-site reuse — without containing a single real
credential. Supports plaintext, unsalted-hash and salted-hash dump
styles, matching the three forms real leaks take (RockYou was
plaintext; MySpace partial; others hashed).
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter
from collections.abc import Iterator

from ..errors import DatasetError
from .common import SeededGenerator, chunked

__all__ = ["PasswordRecord", "PasswordDump", "PasswordDumpGenerator"]


@dataclasses.dataclass(frozen=True)
class PasswordRecord:
    """One account row in a dump."""

    user_id: int
    username: str
    email: str
    password: str  # plaintext (empty when dump is hash-only)
    password_hash: str  # hex digest ('' for plaintext dumps)
    salt: str  # '' when unsalted

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class PasswordDump:
    """A complete synthetic dump."""

    site: str
    style: str  # "plaintext" | "hashed" | "salted"
    records: tuple[PasswordRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def passwords(self) -> tuple[str, ...]:
        """Plaintexts (only meaningful for plaintext dumps)."""
        return tuple(r.password for r in self.records if r.password)

    def frequency(self) -> Counter:
        """Password frequency distribution (the cracker's view)."""
        return Counter(self.passwords())

    def to_records(self) -> list[dict]:
        return [r.to_dict() for r in self.records]


class PasswordDumpGenerator(SeededGenerator):
    """Generate dumps, optionally with cross-site password reuse.

    ``generate_pair`` produces two dumps whose user populations
    overlap and where overlapping users reuse (or lightly mutate)
    their password with the rates Das et al. report (≈43% direct
    reuse among multi-site users, plus partial reuse).
    """

    STYLES = ("plaintext", "hashed", "salted")

    def generate(
        self,
        site: str = "examplesite",
        users: int = 1000,
        style: str = "plaintext",
    ) -> PasswordDump:
        """Generate one dump in the given style.

        A fold over the record stream, so the same seed builds exactly
        the accounts :meth:`iter_records` streams.
        """
        records = []
        for chunk in self.iter_records(users=users, style=style):
            for row in chunk:
                del row["_table"]
                records.append(PasswordRecord(**row))
        return PasswordDump(
            site=site, style=style, records=tuple(records)
        )

    def iter_records(
        self,
        *,
        chunk_size: int = 1024,
        site: str = "examplesite",
        users: int = 1000,
        style: str = "plaintext",
    ) -> Iterator[list[dict]]:
        """Stream the dump as chunks of dicts tagged with ``_table``.

        Flattened output is ``chunk_size`` invariant.
        """
        if style not in self.STYLES:
            raise DatasetError(
                f"unknown dump style {style!r}; one of {self.STYLES}"
            )
        if users <= 0:
            raise DatasetError("users must be positive")
        return chunked(self._iter_flat(users, style), chunk_size)

    def _iter_flat(self, users: int, style: str) -> Iterator[dict]:
        """The one RNG walk: each account as a dict in field order."""
        for user_id in range(users):
            username = self.username()
            password = self.password()
            salt = ""
            digest = ""
            if style in ("hashed", "salted"):
                if style == "salted":
                    salt = f"{self.rng.getrandbits(32):08x}"
                digest = hashlib.sha1(
                    (salt + password).encode("utf-8")
                ).hexdigest()
                password = ""
            yield {
                "user_id": user_id,
                "username": username,
                # Embed the account id so emails are unique per
                # account, as in real dumps (emails are account keys).
                "email": self.email(f"{username}.{user_id}"),
                "password": password,
                "password_hash": digest,
                "salt": salt,
                "_table": "accounts",
            }

    def generate_pair(
        self,
        users: int = 1000,
        overlap: float = 0.3,
        direct_reuse: float = 0.43,
        partial_reuse: float = 0.19,
    ) -> tuple[PasswordDump, PasswordDump]:
        """Two dumps with overlapping users for reuse studies [24]."""
        if not 0.0 <= overlap <= 1.0:
            raise DatasetError("overlap must be in [0, 1]")
        if direct_reuse + partial_reuse > 1.0:
            raise DatasetError("reuse fractions must sum to at most 1")
        first = self.generate(site="site-a", users=users)
        shared = int(users * overlap)
        records_b = []
        for user_id in range(users):
            if user_id < shared:
                original = first.records[user_id]
                username = original.username
                roll = self.rng.random()
                if roll < direct_reuse:
                    password = original.password
                elif roll < direct_reuse + partial_reuse:
                    password = original.password + str(
                        self.rng.randrange(10)
                    )
                else:
                    password = self.password()
                email = original.email
            else:
                username = self.username()
                password = self.password()
                # A distinct namespace so non-shared users can never
                # collide with site-a accounts.
                email = self.email(f"{username}.b{user_id}")
            records_b.append(
                PasswordRecord(
                    user_id=user_id,
                    username=username,
                    email=email,
                    password=password,
                    password_hash="",
                    salt="",
                )
            )
        second = PasswordDump(
            site="site-b", style="plaintext", records=tuple(records_b)
        )
        return first, second
