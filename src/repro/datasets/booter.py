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

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class AttackRecord:
    attack_id: int
    user_id: int
    target_ip: str
    target_port: int
    method: str
    duration_seconds: int
    day: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


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
            "users": [u.to_dict() for u in self.users],
            "attacks": [a.to_dict() for a in self.attacks],
            "payments": [dataclasses.asdict(p) for p in self.payments],
            "tickets": [dataclasses.asdict(t) for t in self.tickets],
            "plans": [dataclasses.asdict(p) for p in self.plans],
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
        """Generate a complete booter database dump."""
        if users <= 0 or days <= 0:
            raise DatasetError("users and days must be positive")
        user_rows = []
        for user_id in range(users):
            username = self.username()
            user_rows.append(
                BooterUser(
                    user_id=user_id,
                    username=username,
                    email=self.email(username),
                    password_hash=hashlib.sha1(
                        self.password().encode()
                    ).hexdigest(),
                    security_question="first pet's name",
                    registration_day=self.rng.randrange(days),
                    last_login_ip=self.ipv4(),
                )
            )
        plans = self.DEFAULT_PLANS
        payments = []
        heavy = max(1, users // 10)
        attacks = []
        attack_id = 0
        payment_id = 0
        for user in user_rows:
            is_heavy = user.user_id < heavy
            # Many accounts register but never pay (the funnel the
            # booter studies report); heavy users always subscribe.
            if not is_heavy and self.rng.random() < 0.4:
                continue
            plan = plans[2] if is_heavy else self.rng.choice(plans[:2])
            subscriptions = self.rng.randrange(1, 4 if is_heavy else 2)
            for _ in range(subscriptions):
                payments.append(
                    PaymentRecord(
                        payment_id=payment_id,
                        user_id=user.user_id,
                        plan=plan.name,
                        amount_usd=plan.price_usd,
                        day=self.rng.randrange(
                            user.registration_day, days
                        ),
                    )
                )
                payment_id += 1
            count = (
                self.rng.randrange(20, 80)
                if is_heavy
                else self.rng.randrange(0, 8)
            )
            for _ in range(count):
                # Amplification methods dominate real booter logs.
                if self.rng.random() < 0.8:
                    method = self.rng.choice(ATTACK_METHODS[:4])
                else:
                    method = self.rng.choice(ATTACK_METHODS[4:])
                attacks.append(
                    AttackRecord(
                        attack_id=attack_id,
                        user_id=user.user_id,
                        target_ip=self.ipv4(),
                        target_port=self.rng.choice(
                            (80, 443, 25565, 3074, 53)
                        ),
                        method=method,
                        duration_seconds=self.rng.randrange(
                            30, plan.max_duration_seconds
                        ),
                        day=self.rng.randrange(
                            user.registration_day, days
                        ),
                    )
                )
                attack_id += 1
        tickets = tuple(
            TicketMessage(
                ticket_id=i,
                user_id=self.rng.randrange(users),
                day=self.rng.randrange(days),
                text=self.sentence(10),
            )
            for i in range(users // 5)
        )
        return BooterDatabase(
            name=name,
            users=tuple(user_rows),
            attacks=tuple(attacks),
            payments=tuple(payments),
            tickets=tickets,
            plans=plans,
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

        Draws from the RNG in exactly the order :meth:`generate`
        does, so a fresh generator with the same seed streams the
        same synthetic dump that the materialised path would build —
        but only ever holds one chunk of attack/payment/ticket rows
        (plus the user table, which the payment loop needs) in
        memory. Records arrive in generation order: users first, then
        each paying user's payments and attacks interleaved, then
        tickets, then plans; flattened output is ``chunk_size``
        invariant.
        """
        if users <= 0 or days <= 0:
            raise DatasetError("users and days must be positive")
        return chunked(self._iter_flat(users, days), chunk_size)

    def _iter_flat(self, users: int, days: int) -> Iterator[dict]:
        """Flat record stream mirroring :meth:`generate` RNG order."""
        user_rows = []
        for user_id in range(users):
            username = self.username()
            user = BooterUser(
                user_id=user_id,
                username=username,
                email=self.email(username),
                password_hash=hashlib.sha1(
                    self.password().encode()
                ).hexdigest(),
                security_question="first pet's name",
                registration_day=self.rng.randrange(days),
                last_login_ip=self.ipv4(),
            )
            user_rows.append(user)
            row = user.to_dict()
            row["_table"] = "users"
            yield row
        plans = self.DEFAULT_PLANS
        heavy = max(1, users // 10)
        attack_id = 0
        payment_id = 0
        for user in user_rows:
            is_heavy = user.user_id < heavy
            if not is_heavy and self.rng.random() < 0.4:
                continue
            plan = plans[2] if is_heavy else self.rng.choice(plans[:2])
            subscriptions = self.rng.randrange(1, 4 if is_heavy else 2)
            for _ in range(subscriptions):
                row = dataclasses.asdict(
                    PaymentRecord(
                        payment_id=payment_id,
                        user_id=user.user_id,
                        plan=plan.name,
                        amount_usd=plan.price_usd,
                        day=self.rng.randrange(
                            user.registration_day, days
                        ),
                    )
                )
                payment_id += 1
                row["_table"] = "payments"
                yield row
            count = (
                self.rng.randrange(20, 80)
                if is_heavy
                else self.rng.randrange(0, 8)
            )
            for _ in range(count):
                if self.rng.random() < 0.8:
                    method = self.rng.choice(ATTACK_METHODS[:4])
                else:
                    method = self.rng.choice(ATTACK_METHODS[4:])
                row = AttackRecord(
                    attack_id=attack_id,
                    user_id=user.user_id,
                    target_ip=self.ipv4(),
                    target_port=self.rng.choice(
                        (80, 443, 25565, 3074, 53)
                    ),
                    method=method,
                    duration_seconds=self.rng.randrange(
                        30, plan.max_duration_seconds
                    ),
                    day=self.rng.randrange(
                        user.registration_day, days
                    ),
                ).to_dict()
                attack_id += 1
                row["_table"] = "attacks"
                yield row
        for ticket_id in range(users // 5):
            row = dataclasses.asdict(
                TicketMessage(
                    ticket_id=ticket_id,
                    user_id=self.rng.randrange(users),
                    day=self.rng.randrange(days),
                    text=self.sentence(10),
                )
            )
            row["_table"] = "tickets"
            yield row
        for plan in plans:
            row = dataclasses.asdict(plan)
            row["_table"] = "plans"
            yield row
