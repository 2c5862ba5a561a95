"""Access control and audit logging for held illicit-origin data.

The §5.2 secure-storage safeguard includes "access control to avoid
accidental leakage". :class:`AccessController` enforces grants per
(principal, action, resource) and records every attempt — allowed or
denied — in an append-only :class:`AuditLog` whose entries are
hash-chained so tampering is detectable.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

from .._util import blake2b_hex, canonical_json
from ..errors import AccessDeniedError, SafeguardError
from ..observability import GENESIS_DIGEST, audit_event, verify_events

__all__ = ["Action", "Grant", "AuditRecord", "AuditLog",
           "AccessController"]


class Action:
    """Actions on a held dataset."""

    READ = "read"
    ANALYZE = "analyze"
    EXPORT = "export"
    DELETE = "delete"
    GRANT = "grant"

    ALL = (READ, ANALYZE, EXPORT, DELETE, GRANT)


@dataclasses.dataclass(frozen=True)
class Grant:
    """Permission for a principal to perform actions on a resource."""

    principal: str
    resource: str
    actions: frozenset[str]

    def __post_init__(self) -> None:
        unknown = self.actions - set(Action.ALL)
        if unknown:
            raise SafeguardError(f"unknown actions {sorted(unknown)}")
        if not self.principal or not self.resource:
            raise SafeguardError("grant needs principal and resource")


@dataclasses.dataclass(frozen=True)
class AuditRecord:
    """One audit entry, hash-chained to its predecessor."""

    sequence: int
    principal: str
    action: str
    resource: str
    allowed: bool
    previous_digest: str
    digest: str = ""

    def compute_digest(self) -> str:
        """The digest binding this record to its chain.

        BLAKE2b-256 over the canonical JSON of every other field, so
        no field boundary can move without changing the digest.
        """
        return blake2b_hex(
            canonical_json(
                {
                    "action": self.action,
                    "allowed": self.allowed,
                    "previous_digest": self.previous_digest,
                    "principal": self.principal,
                    "resource": self.resource,
                    "sequence": self.sequence,
                }
            ),
            32,
        )


class AuditLog:
    """Append-only, hash-chained audit log."""

    GENESIS = GENESIS_DIGEST

    def __init__(self) -> None:
        self._records: list[AuditRecord] = []

    def append(
        self, principal: str, action: str, resource: str, allowed: bool
    ) -> AuditRecord:
        """Append one hash-chained record of an access attempt.

        The record also forwards to the process-wide observability
        trail (:func:`repro.observability.audit_event`), so a REB
        inspecting one combined log sees every controller's traffic
        interleaved in order.
        """
        previous = (
            self._records[-1].digest if self._records else self.GENESIS
        )
        record = AuditRecord(
            sequence=len(self._records),
            principal=principal,
            action=action,
            resource=resource,
            allowed=allowed,
            previous_digest=previous,
        )
        record = dataclasses.replace(
            record, digest=record.compute_digest()
        )
        self._records.append(record)
        audit_event(
            "access",
            action,
            subject=resource,
            principal=principal,
            allowed=allowed,
        )
        return record

    def __iter__(self) -> Iterator[AuditRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def verify_chain(self) -> bool:
        """True when no record has been altered or removed.

        The walk is the audit trail's
        (:func:`~repro.observability.verify_events`) over
        :meth:`AuditRecord.compute_digest`.
        """
        return verify_events(self._records).ok

    def denials(self) -> tuple[AuditRecord, ...]:
        return tuple(r for r in self._records if not r.allowed)

    def by_principal(self, principal: str) -> tuple[AuditRecord, ...]:
        return tuple(
            r for r in self._records if r.principal == principal
        )


class AccessController:
    """Grant-based access control with mandatory audit logging."""

    def __init__(self, owner: str) -> None:
        if not owner:
            raise SafeguardError("owner must be named")
        self.owner = owner
        self._grants: list[Grant] = []
        self.audit = AuditLog()

    def grant(
        self,
        granting_principal: str,
        principal: str,
        resource: str,
        actions: set[str],
    ) -> Grant:
        """Owner (or a principal with GRANT) extends access."""
        if granting_principal != self.owner and not self._allowed(
            granting_principal, Action.GRANT, resource
        ):
            self.audit.append(
                granting_principal, Action.GRANT, resource, False
            )
            raise AccessDeniedError(
                granting_principal, Action.GRANT, resource
            )
        grant = Grant(
            principal=principal,
            resource=resource,
            actions=frozenset(actions),
        )
        self._grants.append(grant)
        self.audit.append(
            granting_principal, Action.GRANT, resource, True
        )
        return grant

    def revoke(self, principal: str, resource: str) -> int:
        """Remove all grants for (principal, resource); returns count.

        Revocations are audit-logged like every other change to who
        can touch the data — the gap the pre-observability version
        left open.
        """
        before = len(self._grants)
        self._grants = [
            g
            for g in self._grants
            if not (g.principal == principal and g.resource == resource)
        ]
        removed = before - len(self._grants)
        self.audit.append(principal, "revoke", resource, True)
        return removed

    def _allowed(
        self, principal: str, action: str, resource: str
    ) -> bool:
        if principal == self.owner:
            return True
        return any(
            g.principal == principal
            and g.resource == resource
            and action in g.actions
            for g in self._grants
        )

    def check(self, principal: str, action: str, resource: str) -> None:
        """Authorize or raise; either way the attempt is logged."""
        if action not in Action.ALL:
            raise SafeguardError(f"unknown action {action!r}")
        allowed = self._allowed(principal, action, resource)
        self.audit.append(principal, action, resource, allowed)
        if not allowed:
            raise AccessDeniedError(principal, action, resource)

    def can(self, principal: str, action: str, resource: str) -> bool:
        """Non-raising, non-logging capability query."""
        return self._allowed(principal, action, resource)
