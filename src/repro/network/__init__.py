"""Fluid-flow network and fabric models.

The bandwidth model follows the SimGrid school of network simulation:
long-lived *flows* traverse capacity-constrained *links* and receive a
max-min fair share, recomputed whenever the flow population changes.
A flow can consume a different fraction of its rate on each link (a
stream striped over *k* storage targets puts only 1/k of its bytes on
each target), which is what lets a single flow model a DAOS object-class
stripe exactly.

:mod:`repro.network.fabric` builds per-node NIC links plus a message
latency model (a message is a callback run on the other node after its
delay); :mod:`repro.network.ofi` layers RPC on those messages.
"""

from repro.network.flows import FlowNetwork, Link, Flow
from repro.network.fabric import Fabric, NodeAddr
from repro.network.ofi import Rpc, RpcServer

__all__ = [
    "FlowNetwork",
    "Link",
    "Flow",
    "Fabric",
    "NodeAddr",
    "Rpc",
    "RpcServer",
]
