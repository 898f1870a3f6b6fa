"""Array export of updated and loaded trees: no materialization, same bytes.

The differential check against the materializing reference export lives in
``tests/properties/test_property_export.py``; this module pins the cost
contract (a one-signature delta publish after an update materializes no
subdomain and leaves the tree deferred), the closed-form size counters,
and the consistency checks the array export keeps.
"""

import random

import numpy as np
import pytest

from repro.core.artifact import load_artifact
from repro.core.client import Client
from repro.core.config import SystemConfig
from repro.core.errors import ConstructionError
from repro.core.owner import DataOwner
from repro.core.queries import KNNQuery, RangeQuery, TopKQuery
from repro.core.records import Dataset, Record, UtilityTemplate
from repro.core.server import Server
from repro.geometry.domain import Domain
from repro.itree.itree import ITree, structure_columns
from repro.metrics.sizes import SizeModel

from tests.helpers import assert_queries_bit_identical
from tests.reference.export import assert_arrays_identical, materializing_export

_TEMPLATE = UtilityTemplate(
    attributes=("factor",),
    domain=Domain(lower=(0.0,), upper=(1.0,)),
    constant_attribute="baseline",
)
_QUERIES = [
    TopKQuery(weights=(0.41,), k=3),
    RangeQuery(weights=(0.73,), low=0.5, high=9.5),
    KNNQuery(weights=(0.27,), k=2, target=3.0),
]


def _owner(scheme="one-signature", count=24, seed=5):
    rng = random.Random(seed)
    rows = [(round(rng.uniform(0, 8), 2), round(rng.uniform(0, 6), 2)) for _ in range(count)]
    return DataOwner(
        Dataset.from_rows(("factor", "baseline"), rows),
        _TEMPLATE,
        config=SystemConfig(scheme=scheme, signature_algorithm="hmac"),
        rng=random.Random(11),
    )


@pytest.fixture()
def materialize_calls(monkeypatch):
    """Every ``ITree.materialize_leaf`` call that attaches a leaf."""
    calls = []
    original = ITree.materialize_leaf

    def counting(itree, leaf):
        if leaf.witness is None and itree.loaded_columns is not None:
            calls.append(leaf.subdomain_id)
        return original(itree, leaf)

    monkeypatch.setattr(ITree, "materialize_leaf", counting)
    return calls


def test_delta_publish_after_update_materializes_nothing(tmp_path, materialize_calls):
    owner = _owner()
    base = tmp_path / "base.npz"
    owner.publish(base)
    owner.insert(Record(record_id=100, values=(3.3, 1.0)))
    owner.delete(4)
    assert "_deferred_load" in owner.ads.__dict__
    report = owner.publish(tmp_path / "delta.npz", base=base)
    assert report.mode == "delta"
    assert materialize_calls == []
    assert "_deferred_load" in owner.ads.__dict__

    loaded = Server.from_artifact(tmp_path / "delta.npz", base=base, expected_epoch=2)
    assert_queries_bit_identical(
        (Server(owner.outsource()), Client(owner.public_parameters())),
        (loaded, Client.from_artifact(tmp_path / "delta.npz")),
        _QUERIES,
    )


def test_row_delta_export_uses_the_update_change_points():
    """At 40 records the row-delta permutation form is the one stored, so
    the update's change points are encoded as they stand; every step of a
    chained insert/delete sequence must still match the dense re-diff."""
    owner = _owner(count=40)
    steps = [("insert", 100), ("delete", 7), ("insert", 101), ("delete", 100), ("delete", 3)]
    for kind, record_id in steps:
        if kind == "insert":
            owner.insert(Record(record_id=record_id, values=(record_id % 8 + 0.37, 2.5)))
        else:
            owner.delete(record_id)
        produced = owner.ads.to_arrays()
        assert "perm_delta_col" in produced
        assert_arrays_identical(materializing_export(owner.ads), produced)


def test_republishing_a_loaded_tree_materializes_nothing(tmp_path, materialize_calls):
    owner = _owner(scheme="multi-signature")
    owner.publish(tmp_path / "ads.npz")
    restarted = DataOwner.from_artifact(tmp_path / "ads.npz", keypair=owner.keypair)
    restarted.publish(tmp_path / "again.npz")
    assert materialize_calls == []
    assert restarted.ads.itree_builder == owner.ads.itree_builder == "bulk"


def _materialized_sums(tree):
    """The replaced per-leaf sums: FMH nodes and sorted-list references."""
    leaves = list(tree.itree.leaves())
    for leaf in leaves:
        tree._ensure_leaf(leaf)
    return (
        sum(leaf.fmh_tree.node_count for leaf in leaves),
        sum(leaf.fmh_tree.item_count for leaf in leaves),
    )


def _trees(dimension, tmp_path):
    """An eager, a loaded and an updated tree of one configuration."""
    if dimension == 1:
        owner = _owner(count=12)
    else:
        rng = random.Random(3)
        rows = [(round(rng.uniform(0, 4), 1), rng.randint(0, 4)) for _ in range(5)]
        owner = DataOwner(
            Dataset.from_rows(("gpa", "award"), rows),
            UtilityTemplate(attributes=("gpa", "award"), domain=Domain.unit_box(2)),
            config=SystemConfig(signature_algorithm="hmac"),
            rng=random.Random(11),
        )
    eager = owner.ads
    owner.publish(tmp_path / f"d{dimension}.npz")
    loaded = load_artifact(tmp_path / f"d{dimension}.npz").ads
    owner.insert(Record(record_id=100, values=(2.5, 1.0)))
    return {"eager": eager, "loaded": loaded, "updated": owner.ads}


@pytest.mark.parametrize("dimension", [1, 2])
def test_size_counters_match_materialized_sums(dimension, tmp_path):
    model = SizeModel(signature_size=64)
    for kind, tree in _trees(dimension, tmp_path).items():
        deferred = "_deferred_load" in tree.__dict__
        node_count = tree.fmh_node_count
        breakdown = tree.size_breakdown(model)
        imh_nodes = tree.imh_node_count
        # None of the counters reconstructs a deferred tree.
        assert ("_deferred_load" in tree.__dict__) == deferred, kind
        fmh_nodes, record_refs = _materialized_sums(tree)
        assert node_count == fmh_nodes, kind
        assert imh_nodes == tree.itree.node_count, kind
        assert breakdown["fmh_bytes"] == fmh_nodes * (
            model.hash_size + 3 * model.pointer_size
        ), kind
        assert breakdown["sorted_list_bytes"] == record_refs * model.pointer_size, kind


def _columns(owner):
    return dict(owner.ads.itree.to_arrays())


@pytest.mark.parametrize(
    "mutate",
    [
        lambda a: a.update(node_is_leaf=a["node_is_leaf"][::-1].copy()),
        lambda a: a.update(node_is_leaf=np.append(a["node_is_leaf"], 1)),
        lambda a: a.update(node_is_leaf=np.where(a["node_is_leaf"] == 1, 2, 0)),
        lambda a: a.update(hyper_i=a["hyper_i"][:-1]),
        lambda a: a.update(leaf_witness=a["leaf_witness"].reshape(-1)),
        lambda a: a.update(leaf_row=a["leaf_row"] + 1),
    ],
    ids=["flags-reversed", "extra-leaf", "flag-value", "short-column", "witness-shape", "row-range"],
)
def test_structure_columns_reject_inconsistent_trees(mutate):
    arrays = _columns(_owner(count=6))
    rows = arrays["leaf_row"].shape[0]
    structure_columns(arrays, 1, rows)  # the unmodified columns pass
    mutate(arrays)
    with pytest.raises(ConstructionError):
        structure_columns(arrays, 1, rows)


def test_structure_columns_reject_a_permutation_row_mismatch():
    arrays = _columns(_owner(count=6))
    with pytest.raises(ConstructionError, match="permutation rows"):
        structure_columns(arrays, 1, arrays["leaf_row"].shape[0] + 1)


@pytest.mark.parametrize(
    "name, replace",
    [
        ("leaf_root_index", lambda a: a + 10**6),
        ("leaf_root_index", lambda a: a[:-1]),
        ("intersection_hash", lambda a: a[:-1]),
        ("arena_left", lambda a: np.where(a >= 0, a + 10**6, a)),
    ],
    ids=["root-range", "root-count", "hash-rows", "child-range"],
)
def test_deferred_export_keeps_the_load_checks(name, replace):
    owner = _owner(count=6)
    owner.insert(Record(record_id=100, values=(3.3, 1.0)))
    stored, engine = owner.ads._deferred_load
    tampered = dict(stored)
    tampered[name] = replace(np.asarray(stored[name]))
    owner.ads._deferred_load = (tampered, engine)
    with pytest.raises((ConstructionError, ValueError)):
        owner.ads.to_arrays()
