import numpy as np
import pytest

from reebkit.catalog import catalog_doc, catalog_get, catalog_list
from reebkit.errors import ParamOutOfRange, UnknownEntry
from reebkit.slices import check_closed, check_transverse, periods


def test_catalog_list():
    names = catalog_list()
    assert names == sorted(names)
    for required in ("unknot", "sheared_unknot", "circle", "torus_r5", "vertical_segment", "hopf_circle", "warped_torus"):
        assert required in names


def test_unknown_entry():
    with pytest.raises(UnknownEntry):
        catalog_get("trefoil")


def test_sheared_param_range():
    with pytest.raises(ParamOutOfRange):
        catalog_get("sheared_unknot", {"c": -0.7})
    with pytest.raises(ParamOutOfRange):
        catalog_get("sheared_unknot", {"c": -2.0 / 3.0})
    entry = catalog_get("sheared_unknot", {"c": -0.6})
    assert entry.expected.chord_lengths[0] == pytest.approx(4.0 / 3.0 - 1.2)


def test_resolution_must_be_integral():
    # a fractional resolution is refused instead of truncated; an integral
    # float builds the same slice as the integer
    with pytest.raises(ParamOutOfRange, match="must be an integer"):
        catalog_get("torus_r5", {"resolution": 8.9})
    assert catalog_get("torus_r5", {"resolution": 24.0}).slice.mesh.shape == (24, 24)


def test_every_entry_has_derivation_doc():
    for name in catalog_list():
        doc = catalog_doc(name)
        assert len(doc) > 80  # entries document their derivations


def test_slice_tags_match_checks():
    for name in catalog_list():
        entry = catalog_get(name)
        closed = check_closed(entry.model, entry.slice)
        transverse = check_transverse(entry.model, entry.slice)
        if "slice" in entry.expected.tags:
            assert closed.passed and transverse.passed, name
        else:
            assert "non-slice" in entry.expected.tags
            if "non-closed" in entry.expected.tags:
                assert not closed.passed and closed.value > 0.1, name
                assert transverse.passed, name  # fails exactly the violated check
            if "reeb-tangent" in entry.expected.tags:
                assert not transverse.passed, name
                assert closed.passed, name


def test_expected_periods_reproduced():
    for name in catalog_list():
        entry = catalog_get(name)
        if entry.expected.periods is None:
            continue
        vals = periods(entry.model, entry.slice, check_closed(entry.model, entry.slice))
        assert np.allclose(vals, entry.expected.periods, atol=1e-6), name


def test_expected_chords_reproduced(projection_chords):
    for key, expected_len in [
        ("unknot", 4.0 / 3.0),
        (("sheared_unknot", -0.5), 1.0 / 3.0),
        (("sheared_unknot", 0.25), 4.0 / 3.0 + 0.5),
    ]:
        found = projection_chords[key]
        assert len(found) == 1
        assert found[0].length == pytest.approx(expected_len, abs=1e-6)
    assert projection_chords["circle"] == []
    assert projection_chords["torus_r5"] == []


def test_sheared_family_five_point_sweep(projection_chords, unknot_entry):
    lengths = {0.0: projection_chords["unknot"][0].length}
    for c in (-0.5, -0.25, 0.25, 0.5):
        lengths[c] = projection_chords[("sheared_unknot", c)][0].length
    for c, length in lengths.items():
        assert length == pytest.approx(4.0 / 3.0 + 2.0 * c, abs=1e-6)


def test_entry_params_recorded():
    entry = catalog_get("sheared_unknot", {"c": 0.25, "resolution": 128})
    assert entry.params == {"c": 0.25, "resolution": 128}
    assert entry.slice.mesh.n_nodes == 128
