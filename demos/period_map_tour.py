"""A tour of the Jacobian-ring period map.

For a smooth 4x7 quadric system the invariant deformation space has
dimension 6; for each character kappa the target splits as (4, 2) and
multiplication by x_kappa has rank 4 with a 2-dimensional kernel that
is spanned by an explicit family.
"""

import random

from latconf.jacobian import (
    kappa_sum_bases,
    kernel_family_vectors,
    period_maps,
    squarefree_triples,
)
from latconf.matrices import Matrix
from latconf.verify import random_system


def show(title):
    print()
    print(f"== {title} ==")


def main():
    rng = random.Random(0)
    q = random_system(rng)
    show("A random smooth 4x7 system")
    for row in q.data:
        print("  " + " ".join(f"{int(x):3d}" for x in row))

    show("Graded dimensions")
    maps = period_maps(q)
    print(f"invariant deformation space: dimension {maps[1].source.dimension}")
    for kappa, pm in maps.items():
        print(f"  kappa={kappa}: target ({pm.target.dimension}, "
              f"{pm.second_dim}), rank {pm.rank}, "
              f"kernel {pm.kernel.rows}")

    show("Character triples behind the second summand")
    for kappa in (1, 7):
        print(f"  kappa={kappa}: all bases {kappa_sum_bases(kappa)}, "
              f"retained {squarefree_triples(kappa)}")

    show("The explicit kernel family (kappa = 3)")
    kappa = 3
    pm = maps[kappa]
    fam = kernel_family_vectors(q, kappa)
    print(f"family vectors: {len(fam)}")
    images_zero = all(
        all(x == 0 for x in pm.target.reduce_vector(v)) for v in fam
    )
    coords = Matrix([pm.source.reduce_vector(v) for v in fam])
    print(f"all images vanish: {images_zero}")
    print(f"family rank on the source: {coords.rank()} "
          f"(= kernel dimension {pm.kernel.rows})")


if __name__ == "__main__":
    main()
