"""DataTap / DataStager: asynchronous, pull-based staged data movement.

This reproduces the transport the paper layers under ADIOS (Section III-C):

* the **writer** stores each output chunk in a node-local staging buffer and
  pushes only *metadata* to the reader, returning immediately — writes are
  asynchronous, so the producer moves on to its next timestep;
* the **reader** pulls the data with an RDMA GET *when it is ready* (i.e.
  when its input queue has room), through a **pull scheduler** that bounds
  concurrent pulls to keep interconnect contention from slowing the
  simulation (the DataStager result);
* writers are **pausable**: the container decrease protocol pauses upstream
  writers so no timestep is lost while downstream replicas are torn down
  (the dominant cost in Figure 5).
"""

from repro.datatap.buffer import BufferFull, StagingBuffer
from repro.datatap.scheduling import NoPullScheduler, PullScheduler
from repro.datatap.writer import DataTapWriter
from repro.datatap.reader import DataTapReader
from repro.datatap.link import DataTapLink

__all__ = [
    "BufferFull",
    "DataTapLink",
    "DataTapReader",
    "DataTapWriter",
    "NoPullScheduler",
    "PullScheduler",
    "StagingBuffer",
]
