"""Declarative policy knowledge base (legal rules + Menlo checks).

The paper's §3 legal analysis, §2 Menlo principle checks and the
assessment engine's verdict-folding policy are expressed as *policy
packs* — plain JSON-serialisable dicts (see
:mod:`repro.policy.defaults`) validated by
:func:`~repro.policy.model.validate_pack` and lowered by
:class:`~repro.policy.compiler.CompiledPolicy` into flat decision
tables: interned fact bits and precomputed condition masks evaluated
without per-rule Python dispatch. ``legal/rules.py`` and
``assessment/engine.py`` run on top of the compiled default pack and
reproduce their historical outputs exactly; venue variants are data
drops, hot-swappable by content digest without a restart.
"""

from __future__ import annotations

from .compiler import CompiledPolicy
from .defaults import (
    DEFAULT_PACK,
    PRECAUTIONARY_PACK,
    legal_issue_ids,
    menlo_principle_ids,
    table1_issue_ids,
)
from .facts import assessment_facts, menlo_facts
from .model import (
    PolicyPack,
    RISK_ORDER,
    STATUS_ORDER,
    VERDICT_ORDER,
    load_pack,
    pack_digest,
    validate_pack,
)
from .runtime import (
    bundled_pack_names,
    compiled_policy,
    default_policy,
    pack_digest_for,
    resolve_pack,
)

__all__ = [
    "CompiledPolicy",
    "DEFAULT_PACK",
    "PRECAUTIONARY_PACK",
    "PolicyPack",
    "RISK_ORDER",
    "STATUS_ORDER",
    "VERDICT_ORDER",
    "assessment_facts",
    "bundled_pack_names",
    "compiled_policy",
    "default_policy",
    "legal_issue_ids",
    "load_pack",
    "menlo_facts",
    "menlo_principle_ids",
    "pack_digest",
    "pack_digest_for",
    "resolve_pack",
    "table1_issue_ids",
    "validate_pack",
]
