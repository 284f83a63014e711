"""Shared data-plane records.

A :class:`DataChunk` is the unit of data movement through the I/O pipeline:
one timestep's output from one producer (the whole simulation output for that
step, or one component's transformed result).  Chunks carry provenance — the
ordered list of analytics actions already applied — which the offline path
uses to label data written to disk (Section III-D: "guarantee that the stored
data will be labeled with its data processing provenance").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple


@dataclass
class DataChunk:
    """One timestep's worth of data flowing through the pipeline.

    Attributes
    ----------
    timestep:
        Simulation output step index this chunk derives from.
    nbytes:
        Wire/storage size of the chunk.
    natoms:
        Number of atoms represented (drives analysis cost models).
    payload:
        Optional real data (NumPy arrays) when running the physical kernels;
        None in pure cost-model simulations.
    provenance:
        Names of analytics actions already applied, in order.
    created_at:
        Simulation time at which the *original* timestep was emitted by the
        application.  Preserved across transformations so end-to-end latency
        (Figure 10) is measured from simulation output to pipeline exit.
    """

    timestep: int
    nbytes: float
    natoms: int = 0
    payload: Any = None
    provenance: Tuple[str, ...] = ()
    created_at: float = 0.0
    #: Time this chunk was handed to its current pipeline stage (set by the
    #: producing writer); container latency = exit time - entered_stage_at.
    entered_stage_at: float = 0.0
    #: Optional content hash attached for soft-error detection (the
    #: container control feature "add hashes of the data to the output").
    integrity: Optional[str] = None
    #: ``(writer_name, chunk_id)`` pairs this chunk was pulled from, set by
    #: the DataTap reader; consumers ack these once the chunk is fully
    #: processed so retaining writers can release custody.  Deliberately not
    #: copied by :meth:`derive` — custody does not follow derived outputs.
    sources: list = field(default_factory=list)
    #: Identity in its run, drawn from the environment's ``chunk_ids``.
    chunk_id: int = field(kw_only=True)

    def derive(
        self,
        producer: str,
        chunk_id: int,
        nbytes: Optional[float] = None,
        natoms: Optional[int] = None,
        payload: Any = None,
    ) -> "DataChunk":
        """A new chunk produced from this one by analytics action ``producer``.

        Timestep and ``created_at`` are preserved; provenance is extended.
        """
        return DataChunk(
            timestep=self.timestep,
            nbytes=self.nbytes if nbytes is None else float(nbytes),
            natoms=self.natoms if natoms is None else int(natoms),
            payload=payload,
            provenance=self.provenance + (producer,),
            created_at=self.created_at,
            chunk_id=chunk_id,
        )

    def __repr__(self) -> str:
        prov = "+".join(self.provenance) or "raw"
        return (
            f"<Chunk ts={self.timestep} {self.nbytes / 2**20:.1f}MiB "
            f"atoms={self.natoms} prov={prov}>"
        )
