"""mdtest-style metadata benchmark (the metadata companion to IOR).

Each rank creates/stats/removes a private tree of empty files; rates are
ops/second aggregated IOR-style (slowest rank defines the phase). On
DAOS the operations fan out across engine targets (directory-entry KV
RPCs); on Lustre every operation funnels through the single MDS — the
metadata-scalability contrast the paper's introduction motivates (small
files "can severely stress the metadata functionality").
"""

from repro.mdtest.mdtest import MdtestParams, MdtestResult, run_mdtest

__all__ = ["MdtestParams", "MdtestResult", "run_mdtest"]
