"""Cluster assembly: simulator + fabric + nodes + DAOS system, pre-booted.

:func:`nextgenio` builds the paper's testbed: 8 dual-engine server nodes
(Optane DCPMM media) plus N client nodes, a pool spanning every target,
and a POSIX container — everything IOR needs. :func:`small_cluster`
is the cheap variant used throughout the test suite;
:func:`build_system` is the DAOS-or-Lustre switch the command lines use.
"""

from repro.cluster.builder import (
    Cluster,
    LustreCluster,
    build_cluster,
    build_lustre_cluster,
    build_system,
    nextgenio,
    small_cluster,
)

__all__ = [
    "Cluster",
    "LustreCluster",
    "build_cluster",
    "build_lustre_cluster",
    "build_system",
    "nextgenio",
    "small_cluster",
]
