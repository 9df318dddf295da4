"""Deterministic discrete-event simulation kernel.

The kernel follows the SimPy style: simulated activities are Python
generators ("tasks") that ``yield`` awaitable objects — a delay, another
task, or a synchronization primitive — and the :class:`Simulator` advances
virtual time from one event to the next. Everything in the stack above
(network flows, Raft timers, DAOS engines, MPI ranks, IOR processes) runs
on this kernel, so a whole cluster benchmark is a single-threaded,
perfectly reproducible program.
"""

from repro.sim.core import Simulator, Task, Timeout
from repro.sim.sync import Condition, Gate, Lock, Queue, Semaphore
from repro.sim.rng import RngStreams

__all__ = [
    "Simulator",
    "Task",
    "Timeout",
    "Condition",
    "Gate",
    "Lock",
    "Queue",
    "Semaphore",
    "RngStreams",
]
