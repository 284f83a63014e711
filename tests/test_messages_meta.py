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
from types import MappingProxyType

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


@pytest.mark.parametrize("mtype, payload, text", [
    # a missing field is named before an undeclared one
    (MessageType.RESIZE_COMPLETE, {"bogus": 1},
     "resize_complete payload missing required fields ['units'] (got ['bogus'])"),
    # every missing field, in declared order
    (MessageType.DATA_METADATA, {"seq": 1, "writer": "w"},
     "data_metadata payload missing required fields "
     "['chunk_id', 'nbytes', 'natoms', 'timestep', 'writer_node'] (got ['seq', 'writer'])"),
    # a read-only mapping is checked like a dict
    (MessageType.RESIZE_COMPLETE, MappingProxyType({"units": 1, "zz": 0, "aa": 0}),
     "resize_complete payload has undeclared fields ['zz', 'aa'] "
     "(declared: ['nodes', 'units'])"),
    (MessageType.HEARTBEAT, None,
     "heartbeat payload must be a mapping with fields ['member'], got NoneType"),
])
def test_schema_error_texts_on_mixed_payloads(mtype, payload, text):
    from repro.evpath.messages import Message, MessageSchemaError, validate_message

    with pytest.raises(MessageSchemaError) as err:
        validate_message(Message(mtype, "lm", payload=payload))
    assert str(err.value) == text


@pytest.mark.parametrize("payload", [
    {"units": 1}, {"units": 1, "nodes": [3]}, MappingProxyType({"nodes": [], "units": 2}),
])
def test_schema_accepts_required_and_optional_fields(payload):
    from repro.evpath.messages import Message, validate_message

    validate_message(Message(MessageType.RESIZE_COMPLETE, "lm", payload=payload))
