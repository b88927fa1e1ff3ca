"""Reaching consensus on which coordinates get encrypted.

Each client proposes the indices of its largest-magnitude update
coordinates.  Proposals travel as tokens from a keyed pseudorandom
permutation, so the server can count votes without learning which
coordinates are hot.  The top-k tokens win; clients invert them back to
indices.

The first section replays the canonical three-client example where indices
1 and 4 collect the most votes; the second runs a larger seeded round.
"""

import numpy as np

from fedsplit import (PartitionMask, decode_partition, encrypt_indices,
                      new_vote_key, propose_partition, tally_votes,
                      target_count)

print("--- three clients, five coordinates, k=2 ---")
vote_key = new_vote_key(seed=7, round_binding=0)
proposals = [[1, 4], [1, 2], [4, 1]]
messages = []
for cid, prop in enumerate(proposals):
    msg = encrypt_indices(PartitionMask.from_indices(prop, 5), vote_key,
                          client_id=cid)
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
vote_key = new_vote_key(seed=11, round_binding=5)
messages = []
for cid in range(6):
    update = rng.normal(0, 1, dim) * rng.uniform(0.1, 2.0, dim)
    mask = propose_partition(update, r, "max")
    messages.append(encrypt_indices(mask, vote_key, client_id=cid))
    print(f"client {cid} proposes {mask.he_indices.tolist()}")
consensus = decode_partition(tally_votes(messages, k), vote_key, dim, k)
print(f"consensus mask (k={k}): {consensus.he_indices.tolist()}")
print("every client decodes the same mask from the same tokens; "
      "token != index, so the server learned only vote counts")
