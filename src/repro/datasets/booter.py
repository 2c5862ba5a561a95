"""Synthetic booter (DDoS-as-a-Service) database (§4.3.1 substitute).

Reproduces the schema the paper enumerates for leaked booter dumps:
"details of user accounts including names, email addresses, password
hashes and security questions; details of the backend and frontend
servers used for attacks; logs of connections to the site including IP
addresses and user agent strings; logs of attacks including target IP
addresses, ports, domain names and the method used; tickets and
messages sent between users and site owners; records of payments;
details of pricing plans".
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Iterator

from ..errors import DatasetError
from .common import SeededGenerator, chunked

__all__ = [
    "BooterUser",
    "AttackRecord",
    "PaymentRecord",
    "TicketMessage",
    "PricingPlan",
    "BooterDatabase",
    "BooterDatabaseGenerator",
]

ATTACK_METHODS = (
    "dns-amplification",
    "ntp-amplification",
    "ssdp-amplification",
    "chargen-amplification",
    "udp-flood",
    "syn-flood",
)


@dataclasses.dataclass(frozen=True)
class BooterUser:
    user_id: int
    username: str
    email: str
    password_hash: str
    security_question: str
    registration_day: int
    last_login_ip: str


@dataclasses.dataclass(frozen=True)
class AttackRecord:
    attack_id: int
    user_id: int
    target_ip: str
    target_port: int
    method: str
    duration_seconds: int
    day: int


@dataclasses.dataclass(frozen=True)
class PaymentRecord:
    payment_id: int
    user_id: int
    plan: str
    amount_usd: float
    day: int


@dataclasses.dataclass(frozen=True)
class TicketMessage:
    ticket_id: int
    user_id: int
    day: int
    text: str


@dataclasses.dataclass(frozen=True)
class PricingPlan:
    name: str
    max_duration_seconds: int
    concurrent_attacks: int
    price_usd: float


#: Row class of each table, in the order :meth:`BooterDatabase.to_records`
#: lists them.
_TABLES = {
    "users": BooterUser,
    "attacks": AttackRecord,
    "payments": PaymentRecord,
    "tickets": TicketMessage,
    "plans": PricingPlan,
}


@dataclasses.dataclass(frozen=True)
class BooterDatabase:
    """A complete synthetic booter dump."""

    name: str
    users: tuple[BooterUser, ...]
    attacks: tuple[AttackRecord, ...]
    payments: tuple[PaymentRecord, ...]
    tickets: tuple[TicketMessage, ...]
    plans: tuple[PricingPlan, ...]

    def revenue(self) -> float:
        return sum(p.amount_usd for p in self.payments)

    def distinct_targets(self) -> int:
        return len({a.target_ip for a in self.attacks})

    def to_records(self) -> dict[str, list[dict]]:
        """Plain-dict views of every table, for generic tooling."""
        return {
            table: [dataclasses.asdict(row) for row in getattr(self, table)]
            for table in _TABLES
        }


class BooterDatabaseGenerator(SeededGenerator):
    """Generate a booter dump with heavy-tailed usage.

    A small fraction of users launch most attacks (matching what
    Karami/Santanna-style analyses report), attack methods skew toward
    UDP amplification (per Thomas et al. [110]), and durations follow
    plan limits.
    """

    DEFAULT_PLANS = (
        PricingPlan("bronze", 300, 1, 4.99),
        PricingPlan("silver", 1200, 2, 14.99),
        PricingPlan("gold", 3600, 4, 39.99),
    )

    def generate(
        self,
        name: str = "examplestresser",
        users: int = 300,
        days: int = 90,
    ) -> BooterDatabase:
        """Generate a complete booter database dump.

        A fold over the record stream: each row becomes its table's
        dataclass, so a fresh generator with the same seed builds
        exactly the dump :meth:`iter_records` streams.
        """
        rows: dict[str, list] = {table: [] for table in _TABLES}
        for chunk in self.iter_records(users=users, days=days):
            for row in chunk:
                table = row.pop("_table")
                rows[table].append(_TABLES[table](**row))
        return BooterDatabase(
            name=name, **{table: tuple(r) for table, r in rows.items()}
        )

    def iter_records(
        self,
        *,
        chunk_size: int = 1024,
        name: str = "examplestresser",
        users: int = 300,
        days: int = 90,
    ) -> Iterator[list[dict]]:
        """Stream the dump as chunks of dicts tagged with ``_table``.

        Holds only one chunk of attack/payment/ticket rows (plus the
        users' registration days, which the payment loop needs) in
        memory. Records arrive in generation order: users first, then
        each paying user's payments and attacks interleaved, then
        tickets, then plans; flattened output is ``chunk_size``
        invariant.
        """
        if users <= 0 or days <= 0:
            raise DatasetError("users and days must be positive")
        return chunked(self._iter_flat(users, days), chunk_size)

    def _iter_flat(self, users: int, days: int) -> Iterator[dict]:
        """The one RNG walk: every row as a dict tagged with ``_table``.

        Rows are dict literals with keys in their dataclass's field
        order, and their values are drawn in that order, so the RNG
        draw order is part of the schema.
        """
        rng = self.rng
        registration_days = []
        for user_id in range(users):
            username = self.username()
            row = {
                "user_id": user_id,
                "username": username,
                "email": self.email(username),
                "password_hash": hashlib.sha1(
                    self.password().encode()
                ).hexdigest(),
                "security_question": "first pet's name",
                "registration_day": rng.randrange(days),
                "last_login_ip": self.ipv4(),
                "_table": "users",
            }
            registration_days.append(row["registration_day"])
            yield row
        plans = self.DEFAULT_PLANS
        heavy = max(1, users // 10)
        attack_id = 0
        payment_id = 0
        for user_id, registered in enumerate(registration_days):
            is_heavy = user_id < heavy
            # Many accounts register but never pay (the funnel the
            # booter studies report); heavy users always subscribe.
            if not is_heavy and rng.random() < 0.4:
                continue
            plan = plans[2] if is_heavy else rng.choice(plans[:2])
            subscriptions = rng.randrange(1, 4 if is_heavy else 2)
            for _ in range(subscriptions):
                yield {
                    "payment_id": payment_id,
                    "user_id": user_id,
                    "plan": plan.name,
                    "amount_usd": plan.price_usd,
                    "day": rng.randrange(registered, days),
                    "_table": "payments",
                }
                payment_id += 1
            count = (
                rng.randrange(20, 80) if is_heavy else rng.randrange(0, 8)
            )
            for _ in range(count):
                # Amplification methods dominate real booter logs.
                if rng.random() < 0.8:
                    method = rng.choice(ATTACK_METHODS[:4])
                else:
                    method = rng.choice(ATTACK_METHODS[4:])
                yield {
                    "attack_id": attack_id,
                    "user_id": user_id,
                    "target_ip": self.ipv4(),
                    "target_port": rng.choice((80, 443, 25565, 3074, 53)),
                    "method": method,
                    "duration_seconds": rng.randrange(
                        30, plan.max_duration_seconds
                    ),
                    "day": rng.randrange(registered, days),
                    "_table": "attacks",
                }
                attack_id += 1
        for ticket_id in range(users // 5):
            yield {
                "ticket_id": ticket_id,
                "user_id": rng.randrange(users),
                "day": rng.randrange(days),
                "text": self.sentence(10),
                "_table": "tickets",
            }
        for plan in plans:
            # A plain dataclass's __dict__ holds its fields in order.
            yield {**vars(plan), "_table": "plans"}
