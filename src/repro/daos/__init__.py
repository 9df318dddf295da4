"""A functional re-implementation of the DAOS object store.

Layers (bottom-up):

- :mod:`repro.daos.vos` — the Versioned Object Store kept by each target:
  one sorted ``(dkey, akey)`` index per object, byte-granular extent
  trees, epoch ordering, capacity accounting.
- :mod:`repro.daos.oclass` / :mod:`repro.daos.objid` /
  :mod:`repro.daos.placement` — object classes (S1…SX, RP_*), 128-bit
  object ids with embedded class, and deterministic algorithmic placement
  of object shards onto pool targets.
- :mod:`repro.daos.engine` — the per-socket I/O engine: RPC handlers,
  per-target service credits, media/back-end timing.
- :mod:`repro.daos.system` — a running DAOS system: engines plus the
  Raft-backed pool/container metadata service.
- :mod:`repro.daos.client` — ``libdaos``: pool connect, container
  open/create, object/KV/array handles, and the I/O streams that map
  bulk transfers onto fluid-network flows.
"""
