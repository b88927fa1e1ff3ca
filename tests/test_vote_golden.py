"""Golden vote outputs: message tokens, tie-heavy tallies and the demo walkthrough.

Values were recorded before the vote tokens changed representation; they pin
the tokens a client sends and the winning tokens the server picks when many
counts tie, and two seeded walkthroughs of one voting round (max and random
proposals) printed token by token.  The stdout of
``demos/03_partition_voting.py`` pins int-seeded vote keys, proposals, the
tally and the decode end to end.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedsplit.vectors import PartitionMask
from fedsplit.voting import (PartitionStrategy, decode_partition, encrypt_indices,
                             new_vote_key, propose_partition, tally_votes, target_count,
                             tokenize_round)

VK = new_vote_key(41, round_binding=6)


# digests of the tokens as big-endian u64, recorded as the token bytes of
# the retired wire format
@pytest.mark.parametrize("indices,dim,digest", [
    ([], 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ([0], 1, "e5937826ca5c719db9652424fe252cd3940c9c947782ee02c299ff56adaa983a"),
    ([2, 7, 9, 11], 12, "1599a1f1dbf8fe0d22644066f8c1591dbe1da40dcea2c0031b56409e6651890b"),
    (list(range(0, 300, 7)), 300,
     "0c6497e466164e1a07879c3ce1151e6caade9f438d0c4dd30267af36f901618b"),
])
def test_vote_message_bytes(indices, dim, digest):
    mask = PartitionMask(np.isin(np.arange(dim), indices))
    tokens = encrypt_indices(mask, tokenize_round(VK, [mask])).tokens
    assert tokens.size == len(indices)
    assert hashlib.sha256(tokens.astype(">u8").tobytes()).hexdigest() == digest


TIED_WINNERS = {
    0: [],
    5: ["0dcc9bc6d6208d6e", "1a8e47da91c8fa96", "40bc9d0e4a1a040e",
        "af4aa17ad488e44f", "fe46f387fb244b58"],
    12: ["0d771d3a0131d9d7", "0dcc9bc6d6208d6e", "1a8e47da91c8fa96",
         "2cd99f210c6999a3", "40bc9d0e4a1a040e", "4649139e564cf19a",
         "62a22ec8042290f6", "6b374a16520b0439", "af4aa17ad488e44f",
         "bd62492da5c0eb93", "d575d187f33817bb", "fe46f387fb244b58"],
    40: ["0d771d3a0131d9d7", "0dcc9bc6d6208d6e", "1a8e47da91c8fa96",
         "2cd99f210c6999a3", "40bc9d0e4a1a040e", "4649139e564cf19a",
         "469c68a9488095c3", "46d90457e3d6c854", "4852b025a0cc10f5",
         "5d8b9a54099b28d1", "5e7388af1082924e", "62a22ec8042290f6",
         "63467739b717ebb6", "6b374a16520b0439", "71523f4c2f31c18a",
         "9914e5a714f164ef", "9ae04d2ec3e0ffb6", "aed4c8b718ea96ec",
         "af4aa17ad488e44f", "bd62492da5c0eb93", "c7d3a9518dc2712f",
         "c8f82685a3076150", "d575d187f33817bb", "d802be1b1720ef3d",
         "df29709e4c5a0114", "e8c4a66e7e65ca07", "e92760fc197895c5",
         "ea4254cfad95fbb4", "fe46f387fb244b58"],
}


@pytest.mark.parametrize("k", sorted(TIED_WINNERS))
def test_tie_heavy_tally(k):
    # seven clients, six of forty coordinates each: most counts tie at 1 or 2
    rng = np.random.default_rng(5)
    masks = [PartitionMask(np.isin(np.arange(40), rng.choice(40, size=6, replace=False)))
             for _ in range(7)]
    vk = tokenize_round(VK, masks)
    msgs = [encrypt_indices(mask, vk) for mask in masks]
    assert [f"{t:016x}" for t in tally_votes(msgs, k).tolist()] == TIED_WINNERS[k]


VOTE_DEMO_MAX = """\
clients=4 dim=12 r=0.25 strategy=max -> k=3
client 0 proposes indices [0, 1, 9] -> tokens ['11ce9519e4d85410', '3cff0abdb76ea42a', 'fb6ac3f665b510d3']
client 1 proposes indices [2, 7, 11] -> tokens ['45b6c3ca808b43f0', 'c14dc045ecdacce8', 'd007fbc223ee97a3']
client 2 proposes indices [1, 2, 7] -> tokens ['45b6c3ca808b43f0', 'c14dc045ecdacce8', 'fb6ac3f665b510d3']
client 3 proposes indices [0, 3, 9] -> tokens ['11ce9519e4d85410', '3cff0abdb76ea42a', '57086abdb607e3db']
server tally (token: count):
  11ce9519e4d85410: 2 *
  3cff0abdb76ea42a: 2 *
  45b6c3ca808b43f0: 2 *
  c14dc045ecdacce8: 2
  fb6ac3f665b510d3: 2
  57086abdb607e3db: 1
  d007fbc223ee97a3: 1
winning partition: [0, 7, 9]
"""

VOTE_DEMO_RANDOM = """\
clients=5 dim=10 r=0.3 strategy=random -> k=3
client 0 proposes indices [6, 7, 9] -> tokens ['171fd101bd9b798d', '9973b4a3097a3a2e', 'b67fc0bf51270e43']
client 1 proposes indices [2, 6, 7] -> tokens ['66584c3a4c80f002', '9973b4a3097a3a2e', 'b67fc0bf51270e43']
client 2 proposes indices [3, 5, 8] -> tokens ['49a1ada8dd1aebd6', 'cb3ad07a1df19552', 'e2bd8973be55fbde']
client 3 proposes indices [1, 3, 8] -> tokens ['1cc2059d98c7dcff', '49a1ada8dd1aebd6', 'cb3ad07a1df19552']
client 4 proposes indices [0, 4, 7] -> tokens ['48606e5187fed1f7', 'b187d5b9d9de24e3', 'b67fc0bf51270e43']
server tally (token: count):
  b67fc0bf51270e43: 3 *
  49a1ada8dd1aebd6: 2 *
  9973b4a3097a3a2e: 2 *
  cb3ad07a1df19552: 2
  171fd101bd9b798d: 1
  1cc2059d98c7dcff: 1
  48606e5187fed1f7: 1
  66584c3a4c80f002: 1
  b187d5b9d9de24e3: 1
  e2bd8973be55fbde: 1
winning partition: [3, 6, 7]
"""


def _print_vote_round(clients, dim, ratio, strategy, seed):
    """One voting round traced token by token: each client's seeded proposal,
    every token's votes (most first, ties to the smaller token; the winners
    ``tally_votes`` picks are starred), and the decoded partition."""
    vote_key = new_vote_key(seed, round_binding=0)
    k = target_count(ratio, dim)
    print(f"clients={clients} dim={dim} r={ratio} strategy={strategy.value} -> k={k}")
    masks = [propose_partition(np.random.default_rng((seed, client)).normal(0.0, 1.0, dim),
                               ratio, strategy, seed=(seed, client, 1))
             for client in range(clients)]
    vote_key = tokenize_round(vote_key, masks)
    messages = [encrypt_indices(mask, vote_key) for mask in masks]
    for client, (mask, msg) in enumerate(zip(masks, messages)):
        print(f"client {client} proposes indices {mask.he_indices.tolist()} "
              f"-> tokens {[f'{t:016x}' for t in msg.tokens.tolist()]}")
    winners = tally_votes(messages, k)
    tokens, counts = np.unique(np.concatenate([m.tokens for m in messages]),
                               return_counts=True)
    print("server tally (token: count):")
    for count, token in sorted(zip((-counts).tolist(), tokens.tolist())):
        print(f"  {token:016x}: {-count}{' *' if token in winners.tolist() else ''}")
    mask = decode_partition(winners, vote_key, k)
    print(f"winning partition: {mask.he_indices.tolist()}")


@pytest.mark.parametrize("clients,dim,ratio,strategy,seed,expected", [
    (4, 12, 0.25, PartitionStrategy.MAX_NORM, 3, VOTE_DEMO_MAX),
    (5, 10, 0.3, PartitionStrategy.RANDOM, 1, VOTE_DEMO_RANDOM),
], ids=["max", "random"])
def test_vote_demo_stdout(clients, dim, ratio, strategy, seed, expected, capsys):
    _print_vote_round(clients, dim, ratio, strategy, seed)
    assert capsys.readouterr().out == expected


DEMO_03 = """\
--- three clients, five coordinates, k=2 ---
client 0 proposes [1, 4] -> ['040e2fff1576f8ff', 'c2e35d724c66aee4']
client 1 proposes [1, 2] -> ['040e2fff1576f8ff', 'ad138373dcabcd63']
client 2 proposes [1, 4] -> ['040e2fff1576f8ff', 'c2e35d724c66aee4']
server picks the 2 most frequent tokens; clients decode: [1, 4]  (index 1 had 3 votes, index 4 had 2)

--- a seeded round over 32 coordinates, r = 25% ---
client 0 proposes [0, 1, 8, 9, 13, 21, 29, 30]
client 1 proposes [3, 4, 8, 11, 15, 24, 25, 30]
client 2 proposes [0, 5, 14, 18, 20, 25, 28, 30]
client 3 proposes [1, 3, 5, 8, 12, 14, 19, 31]
client 4 proposes [4, 5, 9, 11, 19, 24, 28, 29]
client 5 proposes [5, 10, 12, 21, 24, 25, 26, 29]
consensus mask (k=8): [0, 5, 8, 12, 24, 25, 29, 30]
every client decodes the same mask from the same tokens; token != index, so the server learned only vote counts
"""


def test_demo_03_stdout():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(root / "demos" / "03_partition_voting.py")],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == DEMO_03
