"""Replicated state machines applied from the Raft log.

Commands are ``(op, *args)`` tuples. Machines must be deterministic: the
same command sequence must yield the same state on every replica — this
is checked by the consensus property tests.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple


class KvStateMachine:
    """Ordered key-value store with CAS — the rsvc building block.

    Operations::

        ("put", key, value)            -> None
        ("get", key)                   -> value | None
        ("del", key)                   -> bool (existed)
        ("cas", key, expect, value)    -> bool (swapped)
        ("inc", key, delta)            -> new integer value
        ("list", prefix)               -> sorted [keys]
    """

    def __init__(self) -> None:
        self.data: Dict[str, Any] = {}

    def apply(self, command: Tuple) -> Any:
        op = command[0]
        if op == "put":
            _, key, value = command
            self.data[key] = value
            return None
        if op == "get":
            return self.data.get(command[1])
        if op == "del":
            return self.data.pop(command[1], _MISSING) is not _MISSING
        if op == "cas":
            _, key, expect, value = command
            if self.data.get(key) == expect:
                self.data[key] = value
                return True
            return False
        if op == "inc":
            _, key, delta = command
            value = int(self.data.get(key, 0)) + delta
            self.data[key] = value
            return value
        if op == "list":
            prefix = command[1]
            return sorted(k for k in self.data if k.startswith(prefix))
        raise ValueError(f"unknown state-machine op {op!r}")


class AppendLogMachine:
    """Test helper: records every applied command in order."""

    def __init__(self) -> None:
        self.applied: List[Any] = []

    def apply(self, command: Any) -> int:
        self.applied.append(command)
        return len(self.applied)


_MISSING = object()
