#!/usr/bin/env python
"""Replicated object classes and metadata-service fault tolerance.

The paper notes DAOS "has demonstrated ... resiliency for HPC
applications": this example exercises the resilience layers this repo
implements — Raft-replicated pool/container metadata surviving a service
leader crash, RP_2G1 (2-way replicated) objects surviving a storage
target exclusion, and the online rebuild engine resyncing the excluded
target back to full health while `pool_query` tracks progress
(DESIGN.md §7.5).

Run:  python examples/failure_resilience.py
"""

from repro.cluster import nextgenio
from repro.daos.api import RP_2G1


def main() -> None:
    cluster = nextgenio(client_nodes=1)
    client = cluster.new_client(0)

    def scenario():
        pool = yield from client.connect_pool("tank")
        cont = yield from pool.create_container("precious", oclass="RP_2G1")

        # --- metadata resilience: crash the Raft leader mid-session ---
        leader = cluster.daos.svc.leader()
        print(f"metadata service leader: raft node {leader.node_id}; "
              "crashing it...")
        leader.crash()
        cluster.sim.schedule(5.0, leader.restart)
        # the next metadata op rides out the election transparently
        cont2 = yield from pool.create_container("post-failover")
        new_leader = None
        while new_leader is None:
            yield 0.05
            new_leader = cluster.daos.svc.leader()
        print(f"  -> container {cont2.props['label']!r} created; new "
              f"leader is raft node {new_leader.node_id}")

        # --- data resilience: lose a target under a replicated object ---
        oid = yield from cont.alloc_oid(RP_2G1)
        obj = cont.open_object(oid)
        yield from obj.write(0, b"forecast state vector" * 1000)
        replicas = obj.layout.targets_for_dkey(0)
        print(f"object {oid} replicated on targets {replicas}")
        yield from cluster.daos.exclude_target(
            pool.pool_map.uuid, replicas[0]
        )
        yield from pool.refresh_map()
        print(f"  excluded leader target {replicas[0]} "
              f"(pool map v{pool.pool_map.version})")
        survivor = cont.open_object(oid)
        data = yield from survivor.read(0, 21)
        print(f"  read from surviving replica: {data.materialize()!r}")

        # --- self-healing: write through the window, then reintegrate ---
        yield from obj.write(0, b"revised state vector " * 1000)
        query = cluster.daos.pool_query(pool.pool_map.uuid)
        print(f"pool health: {query['up_targets']}/{query['n_targets']} "
              f"targets up, map v{query['version']}")
        yield from cluster.daos.reintegrate_target(
            pool.pool_map.uuid, replicas[0]
        )
        query = yield from cluster.daos.wait_rebuild(pool.pool_map.uuid)
        rb = query["rebuild"]
        print(f"  reintegrated target {replicas[0]}: rebuild "
              f"{rb['status']}, {rb['bytes_moved']} bytes resynced, "
              f"{query['up_targets']}/{query['n_targets']} targets up")
        yield from pool.refresh_map()
        healed = cont.open_object(oid)
        data = yield from healed.read(0, 21)
        print(f"  read after self-heal: {data.materialize()!r}")
        obj.close()
        survivor.close()
        healed.close()
        return data.materialize()

    data = cluster.run(scenario(), limit=1e6)
    assert data == b"revised state vector "
    print("resilience scenario complete.")


if __name__ == "__main__":
    main()
