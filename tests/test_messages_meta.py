"""Meta-test: every message type the protocol code uses is schema-covered.

Grep-the-source style: scan the subsystems that construct control-plane
messages for ``MessageType.X`` references and require each referenced
type to have an entry in :data:`repro.evpath.messages.SCHEMAS`.  A new
protocol that invents a message type without declaring its payload
schema would silently bypass ``validate_message`` — this test makes that
a loud failure instead.
"""

import re
from pathlib import Path

import pytest

from repro.evpath.messages import SCHEMAS, MessageType

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the subsystems that send (or handle) protocol messages
SCANNED = ("containers", "transactions", "faults", "controlplane", "datatap")

_REF = re.compile(r"MessageType\.([A-Z_]+)")


def _referenced_types():
    refs = {}
    for subsystem in SCANNED:
        for path in sorted((SRC / subsystem).rglob("*.py")):
            for name in _REF.findall(path.read_text()):
                refs.setdefault(name, set()).add(f"{subsystem}/{path.name}")
    return refs


def test_scanned_subsystems_exist():
    for subsystem in SCANNED:
        assert (SRC / subsystem).is_dir(), subsystem


def test_source_references_are_real_message_types():
    unknown = [n for n in _referenced_types() if n not in MessageType.__members__]
    assert not unknown, f"source references unknown MessageType members: {unknown}"


def test_every_used_message_type_has_a_schema():
    refs = _referenced_types()
    assert refs, "scan found no MessageType references — pattern broken?"
    missing = {
        name: sorted(files)
        for name, files in sorted(refs.items())
        if MessageType.__members__[name] not in SCHEMAS
    }
    assert not missing, (
        "message types used without a SCHEMAS entry (payload validation "
        f"silently skipped): {missing}"
    )


@pytest.mark.parametrize("mtype", sorted(SCHEMAS, key=lambda m: m.name))
def test_schema_fields_are_frozen_named_tuples(mtype):
    schema = SCHEMAS[mtype]
    assert schema.mtype is mtype
    assert isinstance(schema.required, tuple)


@pytest.mark.parametrize("payload, text", [
    ({"nodes": [3]},
     "resize_complete payload missing required fields ['units'] (got ['nodes'])"),
    ({"units": 1, "bogus": 2, "nodes": [3], "also": 0},
     "resize_complete payload has undeclared fields ['bogus', 'also'] "
     "(declared: ['nodes', 'units'])"),
    ([1],
     "resize_complete payload must be a mapping with fields ['units'], got list"),
])
def test_schema_error_texts(payload, text):
    from repro.evpath.messages import Message, MessageSchemaError, validate_message

    with pytest.raises(MessageSchemaError) as err:
        validate_message(Message(MessageType.RESIZE_COMPLETE, "lm", payload=payload))
    assert str(err.value) == text
