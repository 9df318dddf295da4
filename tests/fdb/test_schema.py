"""Schema-key unit tests: canonical form, validation, query expansion."""

import pytest

from repro.errors import DerInval
from repro.fdb.schema import AXES, FieldKey, FieldQuery, make_fields
from repro.units import stable_seed


def test_canonical_zero_pads_and_round_trips():
    key = FieldKey("t2m", 500, 12, 1, "20200101")
    assert key.canonical == "t2m/0500/012/001/20200101"
    assert FieldKey.from_canonical(key.canonical) == key


def test_canonical_order_is_semantic_order():
    early = FieldKey("t2m", 500, 9, 0, "20200101")
    late = FieldKey("t2m", 500, 12, 0, "20200101")
    # without zero padding "12" < "9" lexicographically — the canonical
    # form is exactly what makes ordered prefix scans return step order
    assert early.canonical < late.canonical
    assert early < late


def test_seed_is_stable_content_hash():
    key = FieldKey("t2m", 1000, 12, 0, "20200101")
    assert key.seed == stable_seed(key.canonical)
    assert key.seed == FieldKey.from_canonical(key.canonical).seed


@pytest.mark.parametrize(
    "kwargs",
    [
        {"param": ""},
        {"param": "a/b"},
        {"param": "t2m,u10"},      # reserved metric-label character
        {"param": "t{2}m"},
        {"level": -1},
        {"level": 10000},
        {"step": 1000},
        {"member": -3},
        {"step": 1.5},
        {"date": "2020011"},
        {"date": "2020-1-1"},
    ],
)
def test_bad_axis_values_rejected(kwargs):
    base = dict(param="t2m", level=500, step=0, member=0, date="20200101")
    base.update(kwargs)
    with pytest.raises(DerInval):
        FieldKey(**base)


@pytest.mark.parametrize("text", ["", "t2m/0500", "t2m/x/012/001/20200101",
                                  "t2m/0500/012/001/20200101/extra"])
def test_bad_canonical_rejected(text):
    with pytest.raises(DerInval):
        FieldKey.from_canonical(text)


def test_query_scalars_normalise_to_tuples():
    query = FieldQuery(param="t2m", step=3)
    assert query.param == ("t2m",)
    assert query.step == (3,)
    assert query.level is None


def test_query_prefix_stops_at_first_wildcard():
    assert FieldQuery().prefix() == ""
    assert FieldQuery(param="t2m").prefix() == "t2m/"
    assert FieldQuery(param="t2m", level=500).prefix() == "t2m/0500/"
    # a multi-valued axis ends the shared prefix too
    assert FieldQuery(param="t2m", level=(500, 850)).prefix() == "t2m/"
    # a wildcard in the middle hides later concrete axes from the prefix
    assert FieldQuery(param="t2m", step=3).prefix() == "t2m/"


def test_query_fully_concrete_prefix_is_the_key_itself():
    key = FieldKey("t2m", 500, 12, 1, "20200101")
    query = FieldQuery(param=key.param, level=key.level, step=key.step,
                       member=key.member, date=key.date)
    assert query.prefix() == key.canonical


def test_query_matches_every_axis():
    key = FieldKey("t2m", 500, 12, 1, "20200101")
    assert FieldQuery(param="t2m").matches(key)
    assert FieldQuery(param=("t2m", "u10"), step=(9, 12)).matches(key)
    assert not FieldQuery(param="u10").matches(key)
    assert not FieldQuery(param="t2m", member=0).matches(key)


def test_make_fields_is_a_dense_sorted_product():
    keys = make_fields(n_params=2, n_levels=2, n_steps=3, n_members=2,
                       n_dates=2)
    assert len(keys) == 2 * 2 * 3 * 2 * 2
    assert len(set(keys)) == len(keys)
    params = {key.param for key in keys}
    assert params == {"t2m", "u10"}
    # every key is canonical-parseable and the grid is deterministic
    assert keys == make_fields(n_params=2, n_levels=2, n_steps=3,
                               n_members=2, n_dates=2)


def test_make_fields_rejects_empty_axes():
    with pytest.raises(DerInval):
        make_fields(n_params=0)


def test_axes_cover_the_key_fields():
    key = FieldKey("t2m", 500, 12, 1, "20200101")
    assert tuple(getattr(key, axis) is not None for axis in AXES) == (
        True,
    ) * 5
