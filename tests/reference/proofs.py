"""Reference Merkle range proof: walk every proven node, level by level.

:meth:`repro.merkle.mh_tree.MerkleTree.range_proof` computes the off-range
hashes from the two ends of the proven range alone.  This oracle is the
set walk it replaced: carry the full set of recomputable node positions up
the tree and ship every sibling that is not in the set, reading digests
from the fully materialized ``levels``.  Property tests assert that the
production proof equals this one, supplements and order included.
"""

from __future__ import annotations

from repro.merkle.mh_tree import MerkleTree, RangeProof


def reference_range_proof(tree: MerkleTree, start: int, end: int) -> RangeProof:
    levels = tree.levels
    supplements = []
    known = set(range(start, end + 1))
    for level in range(len(levels) - 1):
        size = len(levels[level])
        parents = set()
        for index in sorted(known):
            parents.add(index // 2)
            if index == size - 1 and size % 2 == 1:
                continue  # carried node, no sibling
            sibling = index + 1 if index % 2 == 0 else index - 1
            if sibling not in known:
                supplements.append((level, sibling, levels[level][sibling]))
                known.add(sibling)
        known = parents
    return RangeProof(
        start=start, end=end, leaf_count=len(levels[0]), supplements=tuple(supplements)
    )
