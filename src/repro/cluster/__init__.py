"""Simulated HPC machine: nodes, interconnect, batch scheduler.

The paper's experiments ran on NERSC's Franklin (Cray XT4, Portals 3-D torus)
and Sandia's RedSky (InfiniBand 3-D toroidal mesh).  This package models the
pieces of those machines that the paper's results actually depend on:

* per-node cores and memory (:class:`Node`);
* NIC injection/ejection bandwidth as the contention point, plus per-hop
  latency with closed-form hop counts on a 3-D torus (:class:`Network`,
  :class:`~repro.cluster.machine.Torus3D`) — the standard first-order
  model for RDMA transfers on torus machines;
* a batch scheduler that hands an application a fixed node partition for the
  whole run and records one owner per node of it (:class:`BatchScheduler`),
  with the Cray ``aprun`` launch-cost artifact the paper measures at 3–27 s
  (:class:`AprunModel`).
"""

from repro.cluster.node import Nic, Node
from repro.cluster.network import Network, TransferError, TransferStats
from repro.cluster.machine import Machine, Partition
from repro.cluster.scheduler import AprunModel, BatchScheduler
from repro.cluster.presets import franklin, redsky

__all__ = [
    "AprunModel",
    "BatchScheduler",
    "Machine",
    "Network",
    "Nic",
    "Node",
    "Partition",
    "TransferError",
    "TransferStats",
    "franklin",
    "redsky",
]
