"""The backend table and capability-flag validation."""

import pytest

from repro.ior import IorParams
from repro.ior.backends import available_apis
from repro.ior.cli import build_parser
from repro.units import KiB, MiB

SMALL = dict(block_size=2 * MiB, transfer_size=256 * KiB)


def test_builtin_apis_registered_in_cli_order():
    assert available_apis() == (
        "POSIX", "DFS", "MPIIO", "HDF5", "DAOS", "HDF5-DAOS"
    )


def test_unknown_api_lists_the_choices():
    with pytest.raises(ValueError) as err:
        IorParams(api="NFS", **SMALL)
    message = str(err.value)
    assert "api must be one of" in message
    for api in available_apis():
        assert api in message
    assert "'NFS'" in message


def test_capability_flags_match_the_old_constraints():
    # collective: MPIIO/HDF5 only (HDF5-DAOS bypasses MPI-IO entirely)
    for api in ("POSIX", "DFS", "DAOS", "HDF5-DAOS"):
        with pytest.raises(ValueError):
            IorParams(api=api, collective=True, **SMALL)
    IorParams(api="MPIIO", collective=True, **SMALL)
    IorParams(api="HDF5", collective=True, **SMALL)

    # async depth > 1: blocked on POSIX, open on object-native apis
    with pytest.raises(ValueError):
        IorParams(api="POSIX", aio_queue_depth=4, **SMALL)
    for api in ("DFS", "DAOS", "HDF5-DAOS"):
        IorParams(api=api, aio_queue_depth=4, **SMALL)

    # depth 0/1 never needs capability
    IorParams(api="POSIX", aio_queue_depth=1, **SMALL)


def test_cross_field_hooks():
    # MPIIO async rides the two-phase aggregators: -c required
    with pytest.raises(ValueError):
        IorParams(api="MPIIO", aio_queue_depth=4, **SMALL)
    IorParams(api="MPIIO", collective=True, aio_queue_depth=4, **SMALL)
    # HDF5 async rides the collective mpio VFD: shared file + -c required
    with pytest.raises(ValueError):
        IorParams(api="HDF5", aio_queue_depth=4, **SMALL)
    with pytest.raises(ValueError):
        IorParams(api="HDF5", collective=True, file_per_proc=True,
                  aio_queue_depth=4, **SMALL)
    IorParams(api="HDF5", collective=True, aio_queue_depth=4, **SMALL)
    # HDF5-DAOS has no VFD constraints: fpp and shared both pipeline
    IorParams(api="HDF5-DAOS", file_per_proc=True, aio_queue_depth=4, **SMALL)
    IorParams(api="HDF5-DAOS", aio_queue_depth=4, **SMALL)


def test_cli_choices_come_from_the_registry():
    parser = build_parser()
    action = next(a for a in parser._actions if a.dest == "api")
    assert tuple(action.choices) == available_apis()


def test_cb_buffer_option_parsed_and_validated():
    params = IorParams(api="MPIIO", collective=True, cb_buffer="1m", **SMALL)
    assert params.cb_buffer == MiB
    with pytest.raises(ValueError):
        IorParams(api="MPIIO", collective=True, cb_buffer=0, **SMALL)
