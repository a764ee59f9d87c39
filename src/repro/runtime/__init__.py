"""Prototype runtime: a threaded mini-cluster with real concurrency.

The paper validates its simulation with a Spark/Sparrow plug-in on a
100-node cluster running sleep tasks (Section 3.8, Figures 16-17).  This
package is the in-process analogue: every node monitor is an OS thread
executing real ``time.sleep`` tasks, RPCs pay real (slept) network
latency, and late binding and centralized placement happen under a real
lock.  The scheduling itself is not re-implemented here: any online
registry policy (:mod:`repro.schedulers.registry`) is bound to the
thread cluster and makes the same decisions it makes in the simulator.
The point — identical to the paper's — is to confirm that the
simulator's trends survive real overheads: message exchanges, lock
contention, scheduling latency and sleep-time inaccuracy.
"""

from repro.runtime.engine import PrototypeCluster
from repro.runtime.node_monitor import NodeMonitor

__all__ = [
    "NodeMonitor",
    "PrototypeCluster",
]
