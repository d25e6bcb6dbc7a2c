import hashlib
import json

import numpy as np
import pytest

from conduel.env import Schedule, SyntheticConfig, gen_synthetic
from conduel.envfile import export_environment, fmt17, import_environment
from conduel.errors import DataFormatError
from conduel.harness import run_experiment


def small_envset(seed=0):
    cfg = SyntheticConfig(n_users=3, n_keyterms=15, n_arms=20, dim=4)
    return gen_synthetic(cfg, seed)


def test_fmt17_round_trips_floats():
    rng = np.random.default_rng(0)
    for x in rng.normal(size=200) * 10.0 ** rng.integers(-12, 12, size=200):
        assert float(fmt17(x)) == x


def test_round_trip_identity(tmp_path):
    es = small_envset()
    path = tmp_path / "env.json"
    export_environment(es, path)
    back = import_environment(path)
    np.testing.assert_array_equal(back.arms, es.arms)
    np.testing.assert_array_equal(back.theta_stars, es.theta_stars)
    np.testing.assert_array_equal(back.graph.arm_idx, es.graph.arm_idx)
    np.testing.assert_array_equal(back.graph.weight, es.graph.weight)
    np.testing.assert_array_equal(back.keyterm_feats, es.keyterm_feats)
    assert back.link.kind == es.link.kind
    assert back.provenance == json.loads(json.dumps(es.provenance))


def test_export_bytes_pinned(tmp_path):
    # the golden-trace universe of test_golden.py; a reordered provenance
    # key or a changed writer moves these
    universe = dict(n_users=2, n_keyterms=30, n_arms=60, dim=4, max_arms_per_keyterm=4)
    path = tmp_path / "env.json"
    digest = export_environment(gen_synthetic(SyntheticConfig(**universe), 7), path)
    assert digest == "5266bb16426106263d73646abdf6be15036948007873d9e58335144ce3c7e0ae"
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest()
        == "dabf530b1d5e6fbc220d03077f6664c9c93ab74e837aa6438cc60edf3e2d5558"
    )


def test_export_is_deterministic(tmp_path):
    es = small_envset()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    d1 = export_environment(es, p1)
    d2 = export_environment(es, p2)
    assert d1 == d2
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupted_checksum_rejected(tmp_path):
    es = small_envset()
    path = tmp_path / "env.json"
    export_environment(es, path)
    doc = json.loads(path.read_text())
    doc["checksum"] = "0" * 64
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="checksum"):
        import_environment(path)


def test_edited_content_rejected(tmp_path):
    es = small_envset()
    path = tmp_path / "env.json"
    export_environment(es, path)
    doc = json.loads(path.read_text())
    doc["arms"][0] = doc["arms"][1]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="checksum"):
        import_environment(path)


def test_version_mismatch_rejected(tmp_path):
    es = small_envset()
    path = tmp_path / "env.json"
    export_environment(es, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="version"):
        import_environment(path)


def test_missing_and_malformed_files(tmp_path):
    with pytest.raises(DataFormatError, match="not found"):
        import_environment(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataFormatError, match="JSON"):
        import_environment(bad)
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(DataFormatError, match="not an environment file"):
        import_environment(other)


def write_edited(tmp_path, edit):
    """An exported file with ``edit`` applied to its body and the checksum
    recomputed, so only the edit can fail the import."""
    path = tmp_path / "env.json"
    export_environment(small_envset(), path)
    doc = json.loads(path.read_text())
    del doc["checksum"]
    edit(doc)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(canon.encode()).hexdigest()
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "field", ["d", "link", "n_arms", "n_keyterms", "n_users", "theta_star", "arms", "weights"]
)
def test_missing_field_rejected(tmp_path, field):
    path = write_edited(tmp_path, lambda doc: doc.pop(field))
    with pytest.raises(DataFormatError, match=f"no '{field}' field"):
        import_environment(path)


@pytest.mark.parametrize("field", ["d", "n_arms", "n_keyterms", "n_users"])
@pytest.mark.parametrize("value", ["x", 2.5, None])
def test_non_integer_count_rejected(tmp_path, field, value):
    path = write_edited(tmp_path, lambda doc: doc.update({field: value}))
    with pytest.raises(DataFormatError, match=f"{field} must be an integer"):
        import_environment(path)


@pytest.mark.parametrize(
    "triple", ["x 0 1.0", "0 y 1.0", "0 0 z", "0 0", "0 0 1 1", "0.5 0 1", 1, None]
)
def test_malformed_weight_triple_rejected(tmp_path, triple):
    path = write_edited(tmp_path, lambda doc: doc["weights"].__setitem__(0, triple))
    with pytest.raises(DataFormatError, match="malformed weight triple"):
        import_environment(path)


@pytest.mark.parametrize("field", ["theta_star", "arms"])
@pytest.mark.parametrize("row", ["0 x 0 0", 1])
def test_malformed_row_rejected(tmp_path, field, row):
    path = write_edited(tmp_path, lambda doc: doc[field].__setitem__(0, row))
    with pytest.raises(DataFormatError, match=f"malformed {field} row"):
        import_environment(path)


def test_imported_environment_reproduces_traces(tmp_path):
    es = small_envset(seed=5)
    path = tmp_path / "env.json"
    export_environment(es, path)
    back = import_environment(path)
    kw = dict(seeds=[0, 1], schedule=Schedule("prop", 0.3), pool_size=6, users=2)
    a = run_experiment(es, "conduel", 25, **kw)
    b = run_experiment(back, "conduel", 25, **kw)
    np.testing.assert_array_equal(a.inst, b.inst)
