"""I/O containers: the paper's primary contribution.

A :class:`Container` wraps one analysis component in a managed execution
environment: a set of replicas on staging nodes, DataTap input/output, and
per-chunk latency accounting.  A :class:`LocalManager` owns each container —
it executes the increase/decrease/offline protocols against the component
and reports metrics upward.  The :class:`GlobalManager` maintains pipeline-
wide properties: it detects the bottleneck container, trades nodes between
containers (using the spare pool or stealing from over-provisioned donors),
and takes non-essential containers offline — with their downstream
dependents — when nothing else can prevent the pipeline from blocking the
application.
"""

from repro.containers.replica import Replica
from repro.containers.container import Container
from repro.containers.local_manager import LocalManager
from repro.containers.global_manager import GlobalManager
from repro.containers.policy import LatencyPolicy, ManagementPolicy, QueueDerivativePolicy
from repro.containers.recovery import RecoveryManager
from repro.containers.pipeline import Pipeline, PipelineBuilder

__all__ = [
    "Container",
    "GlobalManager",
    "LatencyPolicy",
    "LocalManager",
    "ManagementPolicy",
    "Pipeline",
    "PipelineBuilder",
    "QueueDerivativePolicy",
    "RecoveryManager",
    "Replica",
]
