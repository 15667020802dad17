"""Level reduction: higher-level dimensions from lower-level ones.

Splitting the weight into dominant parts expresses every ungraded
dimension as a shuffle-indexed sum of products of part dimensions.  The
graded analogue fails, and this script shows the smallest counterexample.

Run:  python3 demos/03_level_reduction.py
"""

from klrdim import (
    RootElement,
    Weight,
    block_dim,
    blocks_of_size,
    builtin_cartan,
    dim,
    dominant_splits,
    graded_dim,
    reduce_block_dim,
    reduce_pair_dim_multi,
    reduce_pair_graded,
    validate_cartan,
)

# Level 2 on a single node, split as 1 + 1.
rank1 = validate_cartan([[2]])
two = Weight((2,))
halves = (Weight((1,)), Weight((1,)))

for n in (1, 2, 3):
    nu = (0,) * n
    reduced = reduce_pair_dim_multi(rank1, two, nu, nu, halves)
    direct = dim(rank1, two, nu, nu)
    print(f"{n} strands: reduction {reduced} == direct {direct}")

# Blockwise: the decomposition of the block runs over all ways to divide
# its content, weighted by a squared multinomial.
beta = RootElement((2,))
print("block:", reduce_block_dim(rank1, two, beta, halves),
      "== direct", block_dim(rank1, two, beta))

print()

# A rank-two weight, every 2- and 3-part dominant split, every block of
# size <= 2: the identity holds across the board.
a2 = builtin_cartan("A2")
lam = Weight((2, 1))
checks = 0
for parts in (2, 3):
    for split in dominant_splits(lam, parts):
        for n in range(3):
            for beta in blocks_of_size(a2, n):
                assert reduce_block_dim(a2, lam, beta, split) == block_dim(
                    a2, lam, beta
                )
                checks += 1
print(f"rank-two sweep: {checks} block identities hold")

print()

# The graded story: one strand at level two.  The true graded dimension
# picks up a q-power the product of level-one pieces cannot see.
graded_sum = reduce_pair_graded(rank1, two, (0,), (0,), halves)
true_graded = graded_dim(rank1, two, (0,), (0,))
print("graded reduction sum:", graded_sum)
print("true graded value:   ", true_graded)
assert graded_sum != true_graded
print("the graded analogue fails, as it must")
