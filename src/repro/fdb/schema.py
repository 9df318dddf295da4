"""MARS-like schema keys for the field database.

A field is addressed by five axes — ``param/level/step/member/date`` —
exactly the request language ECMWF's MARS/FDB speak ("all steps of t2m
at level 500 from Monday's run"). The canonical string form zero-pads
the numeric axes so lexicographic key order equals semantic order,
which is what makes prefix scans over the KV index return a whole
branch of the key space in one ordered range:

    t2m/0500/012/001/20200101
    ^^^ ^^^^ ^^^ ^^^ ^^^^^^^^
    param|level|step|member|date

The axis order puts ``param`` first deliberately: the dominant
retrieval pattern ("one parameter across all steps/members") becomes a
single contiguous prefix range.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.daos.kv import RESERVED_KEY_CHARS
from repro.errors import DerInval
from repro.units import stable_seed

#: schema axes in canonical (= sort) order
AXES = ("param", "level", "step", "member", "date")

#: default parameter mnemonics for generated grids (GRIB shortNames)
PARAM_NAMES = ("t2m", "u10", "v10", "msl", "z500", "q700", "tp", "sp",
               "d2m", "ws100")


@dataclass(frozen=True, order=True)
class FieldKey:
    """One field's fully-qualified schema key."""

    param: str
    level: int
    step: int
    member: int
    date: str

    def __post_init__(self) -> None:
        if not self.param or "/" in self.param or any(
            ch in self.param for ch in RESERVED_KEY_CHARS
        ):
            raise DerInval(f"bad param {self.param!r}")
        for axis in ("level", "step", "member"):
            value = getattr(self, axis)
            if not isinstance(value, int) or value < 0:
                raise DerInval(f"bad {axis} {value!r} (non-negative int)")
        if self.level > 9999 or self.step > 999 or self.member > 999:
            raise DerInval(
                f"axis out of canonical range: {self!r} "
                "(level<=9999, step<=999, member<=999)"
            )
        if len(self.date) != 8 or not self.date.isdigit():
            raise DerInval(f"bad date {self.date!r} (want YYYYMMDD)")

    @property
    def canonical(self) -> str:
        """Zero-padded path form; lexicographic order == semantic order."""
        return (f"{self.param}/{self.level:04d}/{self.step:03d}/"
                f"{self.member:03d}/{self.date}")

    @property
    def seed(self) -> int:
        """Deterministic content seed for this field's payload pattern."""
        return stable_seed(self.canonical)

    @classmethod
    def from_canonical(cls, text: str) -> "FieldKey":
        parts = text.split("/")
        if len(parts) != len(AXES):
            raise DerInval(f"bad canonical key {text!r}")
        param, level, step, member, date = parts
        try:
            return cls(param, int(level), int(step), int(member), date)
        except ValueError as exc:
            raise DerInval(f"bad canonical key {text!r}") from exc

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return self.canonical


def _as_tuple(value) -> Optional[Tuple]:
    if value is None:
        return None
    if isinstance(value, (str, int)):
        return (value,)
    return tuple(value)


@dataclass(frozen=True)
class FieldQuery:
    """A key predicate: per axis either ``None`` (wildcard) or the
    allowed values. ``FieldQuery(param="t2m")`` matches every t2m field;
    ``FieldQuery(param="t2m", step=(0, 3))`` narrows to two steps."""

    param: Optional[Tuple[str, ...]] = None
    level: Optional[Tuple[int, ...]] = None
    step: Optional[Tuple[int, ...]] = None
    member: Optional[Tuple[int, ...]] = None
    date: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        for axis in AXES:
            object.__setattr__(self, axis, _as_tuple(getattr(self, axis)))

    def prefix(self) -> str:
        """Longest canonical prefix shared by every matching key — the
        leading run of single-valued axes. Scans start here; everything
        past the first wildcard/multi-valued axis is post-filtered."""
        parts: List[str] = []
        probes = {
            "param": lambda v: v,
            "level": lambda v: f"{v:04d}",
            "step": lambda v: f"{v:03d}",
            "member": lambda v: f"{v:03d}",
            "date": lambda v: v,
        }
        for axis in AXES:
            values = getattr(self, axis)
            if values is None or len(values) != 1:
                break
            parts.append(probes[axis](values[0]))
        if not parts:
            return ""
        if len(parts) == len(AXES):
            return "/".join(parts)
        return "/".join(parts) + "/"

    def matches(self, key: FieldKey) -> bool:
        for axis in AXES:
            values = getattr(self, axis)
            if values is not None and getattr(key, axis) not in values:
                return False
        return True


#: the i-th generated value on each axis, in :data:`AXES` order: NWP
#: conventions — pressure levels every 50 hPa from 1000 downward, 3-hourly
#: steps, dates counting up from 20200101 within 28-day months so the
#: grid never needs calendar logic
_AXIS_RULES = (
    lambda i: PARAM_NAMES[i] if i < len(PARAM_NAMES) else f"p{i:03d}",
    lambda i: 1000 - 50 * i,
    lambda i: 3 * i,
    lambda i: i,
    lambda i: f"2020{1 + i // 28:02d}{1 + i % 28:02d}",
)


def grid_params(n_params: int) -> List[str]:
    """The parameter names a grid of ``n_params`` archives."""
    return [_AXIS_RULES[0](i) for i in range(n_params)]


def check_grid(*counts: int) -> None:
    """``DerInval`` unless a grid of these axis sizes (in :data:`AXES`
    order) is buildable: every axis has a value and each axis's last
    value still fits a :class:`FieldKey`."""
    if min(counts) < 1:
        raise DerInval("every axis needs at least one value")
    first = [rule(0) for rule in _AXIS_RULES]
    for i, (axis, rule, n) in enumerate(zip(AXES, _AXIS_RULES, counts)):
        try:
            FieldKey(*first[:i], rule(n - 1), *first[i + 1:])
        except DerInval as exc:
            reason = str(exc).removeprefix(f"{exc.code}: ")
            raise DerInval(f"{n} {axis}s run past the schema: {reason}") \
                from None


def make_fields(
    n_params: int = 4,
    n_levels: int = 1,
    n_steps: int = 4,
    n_members: int = 1,
    n_dates: int = 1,
) -> List[FieldKey]:
    """Deterministic dense grid of keys (the product of the axis sizes,
    each axis generated by its rule in ``_AXIS_RULES``)."""
    counts = (n_params, n_levels, n_steps, n_members, n_dates)
    check_grid(*counts)
    axes = [[rule(i) for i in range(n)]
            for rule, n in zip(_AXIS_RULES, counts)]
    return [FieldKey(*values) for values in itertools.product(*axes)]
