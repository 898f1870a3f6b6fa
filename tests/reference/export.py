"""Reference ADS export: materialize everything, then read it back out.

The production :meth:`repro.ifmh.ifmh_tree.IFMHTree.to_arrays` re-emits the
arrays an updated or loaded tree already holds.  This oracle is the export
it replaced, kept short and obviously faithful to the node structures:

1. force the I-tree node skeleton (a deferred update reconstructs it);
2. attach every subdomain's region, sorted view and FMH view;
3. walk the I-tree in pre-order and read every column, hash, FMH root
   index and signature off the nodes;
4. encode the permutation from its dense matrix, diffing rows directly.

Property tests assert that production output equals this oracle array by
array, values and dtypes.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.config import MULTI_SIGNATURE
from repro.itree.itree import encode_permutation
from repro.merkle.arena import ArenaMerkleTree, arena_from_level_trees


def _itree_arrays(itree, leaves) -> Dict[str, np.ndarray]:
    """Pre-order node walk over fully materialized leaves."""
    dimension = itree.domain.dimension
    flags, hyper_i, hyper_j, hyper_normal, hyper_offset = [], [], [], [], []
    for node in itree.root.iter_subtree():
        flags.append(1 if node.is_subdomain else 0)
        if node.is_intersection:
            hyper_i.append(node.hyperplane.i)
            hyper_j.append(node.hyperplane.j)
            hyper_normal.append(node.hyperplane.normal)
            hyper_offset.append(node.hyperplane.offset)
    arrays = {
        "node_is_leaf": np.asarray(flags, dtype=np.uint8),
        "hyper_i": np.asarray(hyper_i, dtype=np.int64),
        "hyper_j": np.asarray(hyper_j, dtype=np.int64),
        "hyper_normal": np.asarray(hyper_normal, dtype=np.float64).reshape(
            len(hyper_offset), dimension
        ),
        "hyper_offset": np.asarray(hyper_offset, dtype=np.float64),
        "leaf_witness": np.asarray(
            [leaf.witness for leaf in leaves], dtype=np.float64
        ).reshape(len(leaves), dimension),
        "leaf_row": np.asarray(
            [leaf.sorted_functions.row_index for leaf in leaves], dtype=np.int64
        ),
    }
    dense = np.asarray(itree.shared_order.permutation, dtype=np.int32)
    arrays.update(encode_permutation(dense))
    return arrays


def materializing_export(tree) -> Dict[str, np.ndarray]:
    """The artifact arrays of ``tree``, read off fully materialized nodes.

    Mutates ``tree``: a deferred update is reconstructed and every lazily
    loaded subdomain is attached, exactly as the replaced export did.
    """
    itree = tree.itree
    leaves = list(itree.leaves())
    for leaf in leaves:
        tree._ensure_leaf(leaf)
    arrays = _itree_arrays(itree, leaves)
    first_tree = leaves[0].fmh_tree.tree
    if isinstance(first_tree, ArenaMerkleTree):
        arena = first_tree.arena
        root_indices = np.asarray(
            [leaf.fmh_tree.tree.root_index for leaf in leaves], dtype=np.int64
        )
    else:
        arena, root_indices = arena_from_level_trees(
            [leaf.fmh_tree.tree for leaf in leaves]
        )
    child_dtype = np.int32 if len(arena) < 2**31 else np.int64
    arrays["arena_digests"] = arena.digests
    arrays["arena_left"] = arena.left.astype(child_dtype)
    arrays["arena_right"] = arena.right.astype(child_dtype)
    arrays["leaf_root_index"] = root_indices.astype(child_dtype)
    hashes = [node.hash_value for node in itree.root.iter_subtree() if node.is_intersection]
    arrays["intersection_hash"] = np.frombuffer(b"".join(hashes), dtype=np.uint8).reshape(
        len(hashes), tree.hash_function.digest_size
    )
    if tree.mode == MULTI_SIGNATURE:
        signatures = [leaf.signature for leaf in leaves]
        arrays["leaf_signature"] = np.frombuffer(
            b"".join(signatures), dtype=np.uint8
        ).reshape(len(signatures), len(signatures[0]))
    return arrays


def assert_arrays_identical(expected: Dict[str, np.ndarray], actual: Dict[str, np.ndarray]):
    """Same names in the same order, and per array the same dtype, shape and values."""
    assert list(actual) == list(expected)
    for name, array in expected.items():
        produced = actual[name]
        assert produced.dtype == array.dtype, name
        assert produced.shape == array.shape, name
        assert np.array_equal(produced, array), name
