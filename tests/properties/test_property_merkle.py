"""Property-based tests for the Merkle tree (hypothesis)."""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.merkle.mh_tree import MerkleTree, level_sizes
from tests.reference.proofs import reference_range_proof

leaf_sets = st.lists(st.binary(min_size=0, max_size=16), min_size=1, max_size=40).map(
    lambda blobs: [hashlib.sha256(blob + bytes([i])).digest() for i, blob in enumerate(blobs)]
)


@given(leaves=leaf_sets)
@settings(max_examples=60, deadline=None)
def test_membership_proof_roundtrip(leaves):
    """Every leaf's membership proof reconstructs the root."""
    tree = MerkleTree(leaves)
    for index in range(len(leaves)):
        proof = tree.membership_proof(index)
        assert MerkleTree.root_from_membership(leaves[index], proof) == tree.root


@given(leaves=leaf_sets, data=st.data())
@settings(max_examples=80, deadline=None)
def test_range_proof_roundtrip(leaves, data):
    """Every contiguous range's proof reconstructs the root."""
    tree = MerkleTree(leaves)
    start = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    end = data.draw(st.integers(min_value=start, max_value=len(leaves) - 1))
    proof = tree.range_proof(start, end)
    assert MerkleTree.root_from_range(leaves[start : end + 1], proof) == tree.root


@given(leaves=leaf_sets, data=st.data())
@settings(max_examples=80, deadline=None)
def test_range_proof_equals_the_set_walk_oracle(leaves, data):
    """Two end paths ship exactly the supplements, in order, of the full walk."""
    tree = MerkleTree(leaves)
    start = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    end = data.draw(st.integers(min_value=start, max_value=len(leaves) - 1))
    assert tree.range_proof(start, end) == reference_range_proof(tree, start, end)


@given(leaves=leaf_sets, data=st.data())
@settings(max_examples=60, deadline=None)
def test_range_proof_rejects_any_single_leaf_substitution(leaves, data):
    """Substituting any in-range leaf changes the reconstructed root."""
    tree = MerkleTree(leaves)
    start = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    end = data.draw(st.integers(min_value=start, max_value=len(leaves) - 1))
    position = data.draw(st.integers(min_value=start, max_value=end))
    proof = tree.range_proof(start, end)
    window = list(leaves[start : end + 1])
    window[position - start] = hashlib.sha256(b"forged" + window[position - start]).digest()
    assert MerkleTree.root_from_range(window, proof) != tree.root


@given(leaves=leaf_sets)
@settings(max_examples=60, deadline=None)
def test_level_sizes_match_actual_levels(leaves):
    tree = MerkleTree(leaves)
    assert [len(level) for level in tree.levels] == level_sizes(len(leaves))
    assert len(tree.levels[-1]) == 1


@given(leaves=leaf_sets, data=st.data())
@settings(max_examples=40, deadline=None)
def test_swapping_two_leaves_changes_the_root(leaves, data):
    if len(leaves) < 2:
        return
    i = data.draw(st.integers(min_value=0, max_value=len(leaves) - 2))
    j = data.draw(st.integers(min_value=i + 1, max_value=len(leaves) - 1))
    if leaves[i] == leaves[j]:
        return
    swapped = list(leaves)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert MerkleTree(swapped).root != MerkleTree(leaves).root
