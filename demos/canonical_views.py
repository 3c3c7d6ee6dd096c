"""Show that canonical views do not depend on the input pose.

A random molecule is put through an arbitrary rotation + translation, and
both copies are reduced to their 8 canonical views. Printed side by side,
the two multisets of views are identical up to floating-point noise, which
is the whole trick behind pose-independent prediction.
"""

import numpy as np

from faframe import (
    E3,
    AtomicSystem,
    apply_transform,
    canonical_views,
    compute_frame,
    random_transform,
)


def views_of(system):
    frame = compute_frame(system, E3)
    positions, _ = canonical_views(system, frame.translation, frame.rotations)
    return list(positions)


def main():
    rng = np.random.default_rng(3)
    system = AtomicSystem(
        rng.standard_normal((5, 3)) * 2.0, np.array([6, 6, 8, 1, 1])
    )
    moved = apply_transform(system, random_transform(E3, rng))

    original = views_of(system)
    transformed = views_of(moved)

    print(f"frame size: {len(original)} (all sign choices of 3 PCA axes)")
    # match each view of the original against its closest transformed view
    remaining = list(range(len(transformed)))
    for i, block in enumerate(original):
        gap, j = min(
            (np.abs(block - transformed[k]).max(), k) for k in remaining
        )
        remaining.remove(j)
        print(f"view {i} matches transformed view {j}, max gap {gap:.2e}")

    print("\nfirst canonical view (centered, PCA-aligned):")
    print(np.round(original[0], 4))


if __name__ == "__main__":
    main()
