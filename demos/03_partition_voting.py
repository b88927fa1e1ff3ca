"""Reaching consensus on which coordinates get encrypted.

Each client proposes the indices of its largest-magnitude update
coordinates.  Proposals travel as tokens from a keyed pseudorandom
permutation, so the server can count votes without learning which
coordinates are hot.  The top-k tokens win; clients invert them back to
indices.  Before anyone encrypts, ``tokenize_round`` runs the permutation
once over the round's proposals and returns the round's key, as the
simulator's runtime does; the tokens are the same either way.

The first section replays the canonical three-client example where indices
1 and 4 collect the most votes; the second runs a larger seeded round.
"""

import numpy as np

from fedsplit import (PartitionMask, decode_partition, encrypt_indices,
                      new_vote_key, propose_partition, tally_votes,
                      target_count, tokenize_round)

print("--- three clients, five coordinates, k=2 ---")
proposals = [[1, 4], [1, 2], [4, 1]]
masks = [PartitionMask(np.array(sorted(prop)), 5) for prop in proposals]
vote_key = tokenize_round(new_vote_key(seed=7, round_binding=0), masks)
messages = []
for cid, (prop, mask) in enumerate(zip(proposals, masks)):
    msg = encrypt_indices(mask, vote_key)
    messages.append(msg)
    print(f"client {cid} proposes {sorted(prop)} -> "
          f"{[f'{t:016x}' for t in msg.tokens.tolist()]}")

winners = tally_votes(messages, k=2)
mask = decode_partition(winners, vote_key, dim=5, k=2)
print(f"server picks the 2 most frequent tokens; clients decode: "
      f"{mask.he_indices.tolist()}  (index 1 had 3 votes, index 4 had 2)")

print()
print("--- a seeded round over 32 coordinates, r = 25% ---")
rng = np.random.default_rng(3)
dim, r = 32, 0.25
k = target_count(r, dim)
masks = []
for cid in range(6):
    update = rng.normal(0, 1, dim) * rng.uniform(0.1, 2.0, dim)
    masks.append(propose_partition(update, r, "max"))
    print(f"client {cid} proposes {masks[-1].he_indices.tolist()}")
vote_key = tokenize_round(new_vote_key(seed=11, round_binding=5), masks)
messages = [encrypt_indices(mask, vote_key) for mask in masks]
consensus = decode_partition(tally_votes(messages, k), vote_key, dim, k)
print(f"consensus mask (k={k}): {consensus.he_indices.tolist()}")
print("every client decodes the same mask from the same tokens; "
      "token != index, so the server learned only vote counts")
