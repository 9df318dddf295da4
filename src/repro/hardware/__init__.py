"""Hardware models: storage media, nodes, and the NEXTGenIO preset.

Specs are plain dataclasses; :class:`~repro.hardware.node.ServerNode`
instantiates flow-network links for each DAOS engine's media channels and
per-target service capacity. Calibration values are documented on each
spec field; absolute bandwidths are model inputs, the paper-reproduction
claims rest on the *relative* behaviour they induce (see DESIGN.md §3).
"""

from repro.hardware.specs import (
    DcpmmSpec,
    EngineSpec,
    FabricSpec,
    NodeSpec,
)
from repro.hardware.node import ClientNode, ServerNode, StorageTarget

__all__ = [
    "DcpmmSpec",
    "EngineSpec",
    "NodeSpec",
    "FabricSpec",
    "ServerNode",
    "ClientNode",
    "StorageTarget",
]
