"""Machine presets matching the paper's evaluation platforms.

Franklin (NERSC): 9,572-node Cray XT4, quad-core AMD Budapest 2.3 GHz,
Portals/SeaStar2 interconnect, ~8 GB per node, 38,288 cores.

RedSky (Sandia): Sun Blade capacity cluster, 2,823 nodes, dual-socket Intel
Xeon 5570 (8 cores/node), 12 GB/node, QDR InfiniBand in a 3-D toroidal mesh.

The presets default to *scaled-down* node counts (enough for every experiment
in the paper, which uses at most 1024 simulation + 24 staging nodes) because
every node carries its own NIC, cores and memory pools, and a unit test has
no use for 9,572 of them; pass ``full_scale=True`` to get the real machine
size.  Routing costs nothing to build at either size: hop counts on the
torus are closed-form.
"""

from __future__ import annotations

from repro.simkernel import Environment
from repro.cluster.machine import Machine, torus_3d


def _torus_shape_for(count: int) -> tuple:
    """Smallest near-cubic 3-D torus holding at least ``count`` nodes."""
    side = 1
    while side**3 < count:
        side += 1
    return (side, side, side)


def franklin(
    env: Environment,
    num_nodes: int = 1100,
    full_scale: bool = False,
) -> Machine:
    """NERSC Franklin, Cray XT4.

    SeaStar2 injection bandwidth ~1.6 GB/s effective; MPI latency ~6-8 us on
    Portals.  Topology: 3-D torus.
    """
    if full_scale:
        num_nodes = 9572
    shape = _torus_shape_for(num_nodes)
    return Machine(
        env,
        num_nodes=num_nodes,
        cores_per_node=4,
        memory_per_node=8 * 2**30,
        nic_bandwidth=1.6 * 2**30,
        nic_streams=1,
        topology=torus_3d(shape),
        network_kwargs=dict(
            base_latency=6e-6,
            hop_latency=5e-8,
            software_overhead=8e-6,
        ),
        name="franklin",
    )


def redsky(
    env: Environment,
    num_nodes: int = 600,
    full_scale: bool = False,
) -> Machine:
    """Sandia RedSky, QDR InfiniBand 3-D toroidal mesh."""
    if full_scale:
        num_nodes = 2823
    shape = _torus_shape_for(num_nodes)
    return Machine(
        env,
        num_nodes=num_nodes,
        cores_per_node=8,
        memory_per_node=12 * 2**30,
        nic_bandwidth=3.2 * 2**30,  # QDR IB ~32 Gbit/s effective
        nic_streams=2,
        topology=torus_3d(shape),
        network_kwargs=dict(
            base_latency=1.5e-6,
            hop_latency=1e-7,
            software_overhead=5e-6,
        ),
        name="redsky",
    )
