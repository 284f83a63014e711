"""repro: a reproduction of "I/O Containers: Managing the Data Analytics and
Visualization Pipelines of High End Codes" (Dayal et al., IPDPS 2013).

The package builds, from scratch, every system the paper's evaluation rests
on -- a deterministic discrete-event simulation kernel, a Cray-like machine
model, EVPath-style messaging and overlays, the DataTap/DataStager staged
transport, an ADIOS-like I/O layer, a miniature LAMMPS with real crack
physics, the SmartPointer analytics kernels -- and, on top of them, the
paper's contribution: managed I/O containers with local/global managers,
latency-driven resource trading, and offline fallback.

Every pipeline is described by a validated :class:`~repro.spec.PipelineSpec`
and compiled by one function, :func:`repro.spec.build` (see ``repro.spec``).
Quickstart::

    from repro import Environment
    from repro.spec import PipelineSpec, WorkloadSpec, build

    env = Environment()
    spec = PipelineSpec("quickstart", workload=WorkloadSpec(
        sim_nodes=256, staging_nodes=13, spare=0, steps=30))
    pipe = build(env, spec)
    pipe.run()
    print(pipe.global_manager.actions_taken)

or a bundled preset, with overlays::

    from repro.spec import build_preset

    pipe = build_preset(Environment(), "fig7", workload=dict(steps=4))
"""

from repro.simkernel import Environment
from repro.data import DataChunk
from repro.cluster import BatchScheduler, Machine, franklin, redsky
from repro.evpath import Message, MessageType, Messenger, OverlayTree
from repro.datatap import DataTapLink, DataTapReader, DataTapWriter, PullScheduler
from repro.adios import Group, ParallelFileSystem, VarInfo, read_bp, write_bp
from repro.lammps import (
    CrackExperiment,
    LammpsDriver,
    MDSystem,
    VelocityVerlet,
    WeakScalingWorkload,
)
from repro.smartpointer import (
    SMARTPOINTER_COMPONENTS,
    SMARTPOINTER_COSTS,
    bonds_adjacency,
    central_symmetry,
    common_neighbor_analysis,
    helper_merge,
)
from repro.containers import (
    Container,
    GlobalManager,
    LatencyPolicy,
    LocalManager,
    Pipeline,
)
from repro.transactions import TransactionManager

__version__ = "0.1.0"

__all__ = [
    "BatchScheduler",
    "Container",
    "CrackExperiment",
    "DataChunk",
    "DataTapLink",
    "DataTapReader",
    "DataTapWriter",
    "Environment",
    "GlobalManager",
    "Group",
    "LammpsDriver",
    "LatencyPolicy",
    "LocalManager",
    "MDSystem",
    "Machine",
    "Message",
    "MessageType",
    "Messenger",
    "OverlayTree",
    "ParallelFileSystem",
    "Pipeline",
    "PullScheduler",
    "SMARTPOINTER_COMPONENTS",
    "SMARTPOINTER_COSTS",
    "TransactionManager",
    "VarInfo",
    "VelocityVerlet",
    "WeakScalingWorkload",
    "bonds_adjacency",
    "central_symmetry",
    "common_neighbor_analysis",
    "franklin",
    "helper_merge",
    "read_bp",
    "redsky",
    "write_bp",
]
