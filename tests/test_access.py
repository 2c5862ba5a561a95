"""Unit tests for access control and the hash-chained audit log."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import AccessDeniedError, SafeguardError
from repro.safeguards import (
    AccessController,
    Action,
    AuditLog,
    AuditRecord,
    Grant,
)


class TestGrant:
    def test_unknown_action(self):
        with pytest.raises(SafeguardError):
            Grant(
                principal="a",
                resource="r",
                actions=frozenset({"frobnicate"}),
            )

    def test_needs_principal(self):
        with pytest.raises(SafeguardError):
            Grant(
                principal="", resource="r",
                actions=frozenset({Action.READ}),
            )


class TestAccessController:
    def test_owner_always_allowed(self):
        controller = AccessController("alice")
        controller.check("alice", Action.DELETE, "dump")

    def test_denied_without_grant(self):
        controller = AccessController("alice")
        with pytest.raises(AccessDeniedError):
            controller.check("bob", Action.READ, "dump")

    def test_grant_then_allowed(self):
        controller = AccessController("alice")
        controller.grant("alice", "bob", "dump", {Action.READ})
        controller.check("bob", Action.READ, "dump")
        with pytest.raises(AccessDeniedError):
            controller.check("bob", Action.EXPORT, "dump")

    def test_grants_are_per_resource(self):
        controller = AccessController("alice")
        controller.grant("alice", "bob", "dump-a", {Action.READ})
        with pytest.raises(AccessDeniedError):
            controller.check("bob", Action.READ, "dump-b")

    def test_non_owner_cannot_grant(self):
        controller = AccessController("alice")
        with pytest.raises(AccessDeniedError):
            controller.grant("bob", "carol", "dump", {Action.READ})

    def test_delegated_granting(self):
        controller = AccessController("alice")
        controller.grant("alice", "bob", "dump", {Action.GRANT})
        controller.grant("bob", "carol", "dump", {Action.READ})
        assert controller.can("carol", Action.READ, "dump")

    def test_revoke(self):
        controller = AccessController("alice")
        controller.grant("alice", "bob", "dump", {Action.READ})
        assert controller.revoke("bob", "dump") == 1
        assert not controller.can("bob", Action.READ, "dump")

    def test_unknown_action_rejected(self):
        controller = AccessController("alice")
        with pytest.raises(SafeguardError):
            controller.check("alice", "frobnicate", "dump")

    def test_every_attempt_logged(self):
        controller = AccessController("alice")
        controller.check("alice", Action.READ, "dump")
        with pytest.raises(AccessDeniedError):
            controller.check("eve", Action.READ, "dump")
        assert len(controller.audit) == 2
        assert len(controller.audit.denials()) == 1

    def test_owner_required(self):
        with pytest.raises(SafeguardError):
            AccessController("")


class TestAuditLog:
    def test_chain_verifies(self):
        log = AuditLog()
        for index in range(5):
            log.append("alice", Action.READ, f"r{index}", True)
        assert log.verify_chain()

    def test_tampering_breaks_chain(self):
        log = AuditLog()
        log.append("alice", Action.READ, "dump", True)
        log.append("bob", Action.READ, "dump", False)
        record = log._records[0]
        log._records[0] = dataclasses.replace(record, allowed=False)
        assert not log.verify_chain()

    def test_field_boundaries_are_bound_by_digest(self):
        first = AuditRecord(0, "a|read", "x", "ds", True, "g")
        second = AuditRecord(0, "a", "read|x", "ds", True, "g")
        assert first.compute_digest() != second.compute_digest()

    def test_boundary_shift_breaks_chain(self):
        log = AuditLog()
        log.append("a|read", "x", "ds", True)
        log.append("bob", Action.READ, "ds", False)
        record = log._records[0]
        log._records[0] = dataclasses.replace(
            record, principal="a", action="read|x"
        )
        assert not log.verify_chain()

    def test_removal_breaks_chain(self):
        log = AuditLog()
        for index in range(3):
            log.append("alice", Action.READ, f"r{index}", True)
        del log._records[1]
        assert not log.verify_chain()

    def test_by_principal(self):
        log = AuditLog()
        log.append("alice", Action.READ, "dump", True)
        log.append("bob", Action.READ, "dump", True)
        assert len(log.by_principal("alice")) == 1
