"""Re-publishing an updated or loaded ADS re-emits its arrays, bit for bit.

Production :meth:`repro.ifmh.ifmh_tree.IFMHTree.to_arrays` exports an
incrementally updated tree straight from its update's arrays and an
artifact-loaded tree from its loaded columns, without materializing any
subdomain.  Hypothesis drives insert/delete sequences in both IFMH modes
and checks three owners of the final state -- the live updated owner, an
owner restarted with :meth:`DataOwner.from_artifact` and an owner
recovered from its write-ahead journal:

* ``to_arrays()`` equals the materializing reference export
  (:mod:`tests.reference.export`) array by array, values and dtypes;
* full and delta publishes are byte-identical, member by member, to the
  ones the reference export writes, and to each other across the owners.
"""

import random
import tempfile
import zipfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core.config import MULTI_SIGNATURE, ONE_SIGNATURE, SystemConfig
from repro.core.owner import DataOwner
from repro.core.records import Dataset, Record, UtilityTemplate
from repro.geometry.domain import Domain
from repro.ifmh.ifmh_tree import IFMHTree

from tests.reference.export import assert_arrays_identical, materializing_export

_VALUE = st.floats(min_value=0.0, max_value=8.0, allow_nan=False).map(
    lambda v: round(v, 2)
)
_ROWS = st.lists(st.tuples(_VALUE, _VALUE), min_size=1, max_size=16)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _VALUE, _VALUE),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=10**6)),
    ),
    min_size=1,
    max_size=4,
)
_TEMPLATE = UtilityTemplate(
    attributes=("factor",),
    domain=Domain(lower=(0.0,), upper=(1.0,)),
    constant_attribute="baseline",
)


def _members(path: Path) -> dict:
    """Every stored array's ``.npy`` bytes (zip timestamps aside)."""
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def _publishes(owner: DataOwner, base: Path, workdir: Path, label: str) -> dict:
    full = workdir / f"{label}-full.npz"
    delta = workdir / f"{label}-delta.npz"
    owner.publish(full)
    owner.publish(delta, base=base)
    return {"full": _members(full), "delta": _members(delta)}


def _check_owner(owner: DataOwner, base: Path, workdir: Path, label: str) -> dict:
    """Production export == the reference export; returns the publishes."""
    produced = owner.ads.to_arrays()
    published = _publishes(owner, base, workdir, label)
    # The reference materializes the tree, so it runs after production.
    assert_arrays_identical(materializing_export(owner.ads), produced)
    with mock.patch.object(IFMHTree, "to_arrays", materializing_export):
        reference = _publishes(owner, base, workdir, f"{label}-reference")
    assert published == reference
    return published


def _apply(owner: DataOwner, steps, next_id: int) -> None:
    for step in steps:
        if step[0] == "insert":
            owner.insert(Record(record_id=next_id, values=(step[1], step[2])))
            next_id += 1
        else:
            ids = sorted(record.record_id for record in owner.dataset.records)
            if len(ids) > 1:
                owner.delete(ids[step[1] % len(ids)])


@given(rows=_ROWS, steps=_STEPS, scheme=st.sampled_from([ONE_SIGNATURE, MULTI_SIGNATURE]))
@settings(max_examples=30, deadline=None)
def test_property_republish_matches_materializing_export(rows, steps, scheme):
    with tempfile.TemporaryDirectory() as directory:
        workdir = Path(directory)
        owner = DataOwner(
            Dataset.from_rows(("factor", "baseline"), rows),
            _TEMPLATE,
            config=SystemConfig(scheme=scheme, signature_algorithm="hmac"),
            rng=random.Random(11),
        )
        base = workdir / "base.npz"
        owner.publish(base)
        journal = owner.enable_journal(workdir / "wal.journal", fsync=False)
        _apply(owner, steps, next_id=len(rows))

        owner.publish(workdir / "final.npz")
        restarted = DataOwner.from_artifact(workdir / "final.npz", keypair=owner.keypair)
        recovered = DataOwner.recover(journal, base, keypair=owner.keypair)
        assert restarted.epoch == recovered.epoch == owner.epoch

        live = _check_owner(owner, base, workdir, "live")
        assert _check_owner(restarted, base, workdir, "restarted") == live
        assert _check_owner(recovered, base, workdir, "recovered") == live
