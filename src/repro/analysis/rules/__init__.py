"""The rule catalogue: every repo-specific invariant as one module.

``RULE_CLASSES`` is the registry the engine instantiates; keep it in
rule-id order.  To add a rule: copy the shape of an existing module
(subclass :class:`repro.analysis.engine.Rule`, implement ``check`` as a
generator that yields via ``ctx.finding`` so suppression comments keep
working), append the class here, add a bad/good fixture pair under
``tests/fixtures/analysis/`` and a catalogue row in DESIGN.md.
"""

from __future__ import annotations

from .rep001_order import NondeterministicOrderRule
from .rep002_canonical_json import NonCanonicalJsonRule
from .rep003_seed_discipline import SeedDisciplineRule
from .rep004_registry_bypass import RegistryBypassRule
from .rep005_lock_discipline import LockDisciplineRule
from .rep006_float_equality import FloatEqualityRule
from .rep007_stream_json import StreamJsonDumpRule
from .rep008_batch_invariance import BatchInvarianceRule

RULE_CLASSES = [
    NondeterministicOrderRule,
    NonCanonicalJsonRule,
    SeedDisciplineRule,
    RegistryBypassRule,
    LockDisciplineRule,
    FloatEqualityRule,
    StreamJsonDumpRule,
    BatchInvarianceRule,
]

__all__ = ["RULE_CLASSES"]
