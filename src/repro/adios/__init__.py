"""ADIOS-like I/O layer: declarative groups, one disk path, failover.

The paper uses the ADIOS read/write interface to define component inputs and
outputs, so components can swap I/O methods without code changes.  Two
transports matter for the experiments:

* the DataTap staging transport (:mod:`repro.datatap`) — the online path;
* :meth:`ParallelFileSystem.write_chunk` — write one timestep to the
  parallel file system with its provenance and timestep as attributes.
  This is the path taken when a container is moved *offline*: "each
  component replica in the upstream container has to switch its output
  method within ADIOS to write to disk using the attribute system to mark
  the provenance".  The switch itself lives in
  :meth:`Container.emit <repro.containers.container.Container.emit>`,
  which writes to disk when no downstream link has readers; the offline
  cascade's flushes and strands go through ``write_chunk`` too.

A real on-disk serializer (:mod:`repro.adios.bp`, a BP-lite binary format
for dicts of NumPy arrays plus attributes) backs the examples, while the
simulated :class:`ParallelFileSystem` provides timing for in-simulation
writes.

The failover layer (:mod:`repro.adios.spill`, :mod:`repro.adios.sst`,
:mod:`repro.adios.failover`) adds a degrade-to-disk spill store and an
SST-style replay stream — see DESIGN.md §4k.
"""

from repro.adios.variable import AttributeSet, VarInfo
from repro.adios.group import Group
from repro.adios.filesystem import ParallelFileSystem
from repro.adios.bp import read_bp, write_bp
from repro.adios.read_api import BpSeries, BpStep
from repro.adios.sst import SstStream, SstSubscriber
from repro.adios.spill import (
    SPILL_REASONS,
    SPILL_STATUSES,
    SpillLedger,
    SpillRecord,
    SpillStore,
)
from repro.adios.failover import FailoverManager, FailoverSwitch

__all__ = [
    "BpSeries",
    "BpStep",
    "AttributeSet",
    "FailoverManager",
    "FailoverSwitch",
    "Group",
    "ParallelFileSystem",
    "SPILL_REASONS",
    "SPILL_STATUSES",
    "SpillLedger",
    "SpillRecord",
    "SpillStore",
    "SstStream",
    "SstSubscriber",
    "VarInfo",
    "read_bp",
    "write_bp",
]
