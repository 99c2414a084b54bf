"""Integer calculus on class-size vectors of coloured partitions.

For a colouring with span ``t``, the *shape* is the vector of colour-class
sizes ``(c_0, ..., c_t)``.  Three functionals drive all extremal edge counts:

* ``edge_bound`` (written M below): the sum of ``min(c_i, c_j)`` over all
  *noncontiguous* index pairs (``j >= i + 2``).  No graph with that coloured
  partition can have more edges — each vertex has at most one neighbour in any
  other class, none in its own or the neighbouring classes — and the bound is
  attained by matching classes rank-by-rank.

* ``adjacent_max_pairs`` (K): how many consecutive index pairs both attain
  the maximum class size.  Appears with a minus sign in the closed form for
  near-equal shapes, so maximising edges means spreading the big classes out.

* ``spread`` (the max-minus-min of the sizes): controls which transforms can
  act.  Empty classes (holes) count as size 0 throughout.

A shape is *valid* when it could come from an optimal colouring: both end
classes non-empty and no two consecutive empty classes.  The two transforms —
remove a vertex from a maximum class, add one to a minimum class — change the
edge bound by exactly computable amounts involving the *prohibited zone* of
the touched class (its neighbours on the index line).
"""

from .graphs import _Record


class PartitionShape(_Record):
    """Class sizes ``(c_0, ..., c_t)`` of a coloured partition.

    Any non-negative vector is representable (colourings with bad hole
    patterns exist); :func:`is_valid_shape` is the separate validity test
    used by the extremal machinery.
    """

    sizes: tuple

    def __post_init__(self):
        if len(self.sizes) < 1:
            raise ValueError("a shape needs at least one class")
        for s in self.sizes:
            if not isinstance(s, int) or s < 0:
                raise ValueError(f"class sizes must be non-negative integers, got {s!r}")

    @property
    def t(self) -> int:
        """Top class index (span of the underlying colouring)."""
        return len(self.sizes) - 1

    @property
    def n(self) -> int:
        """Total vertex count."""
        return sum(self.sizes)


def is_valid_shape(shape: PartitionShape) -> bool:
    """Whether the shape can belong to an optimal colouring of span >= 3.

    Needs length >= 4, non-empty end classes, and no two consecutive empty
    classes (a double gap would let all higher labels shift down).
    """
    s = shape.sizes
    if len(s) < 4:
        return False
    if s[0] < 1 or s[-1] < 1:
        return False
    return all(s[i] or s[i + 1] for i in range(len(s) - 1))


def parse_shape(text: str) -> PartitionShape:
    """Parse the serialized form ``c0,c1,...,ct`` (e.g. ``3,2,1,3``)."""
    parts = text.strip().split(",")
    try:
        sizes = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"shape must be comma-separated integers, got {text!r}") from None
    return PartitionShape(sizes)


def format_shape(shape: PartitionShape) -> str:
    """Inverse of :func:`parse_shape`."""
    return ",".join(str(s) for s in shape.sizes)


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def edge_bound(shape: PartitionShape) -> int:
    """M: sum of smaller sizes over noncontiguous class pairs (t >= 3).

    Sorted descending, the ``i``-th size is the smaller of ``i`` pairs; the
    contiguous pairs' minimums are then taken off.
    """
    s = shape.sizes
    if len(s) < 4:
        raise ValueError(f"edge bound needs at least 4 classes, got {len(s)}")
    every = sum(i * c for i, c in enumerate(sorted(s, reverse=True)))
    return every - sum(map(min, s, s[1:]))


def adjacent_max_pairs(shape: PartitionShape) -> int:
    """K: consecutive index pairs whose classes both attain the maximum size."""
    s = shape.sizes
    mx = max(s)
    return sum(1 for i in range(len(s) - 1) if s[i] == mx and s[i + 1] == mx)


def spread(shape: PartitionShape) -> int:
    """Maximum class size minus minimum, empties included."""
    return max(shape.sizes) - min(shape.sizes)


def max_classes(shape: PartitionShape) -> frozenset:
    """Indices of the largest classes."""
    mx = max(shape.sizes)
    return frozenset(i for i, s in enumerate(shape.sizes) if s == mx)


def min_classes(shape: PartitionShape) -> frozenset:
    """Indices of the smallest classes (empty classes count as size 0)."""
    mn = min(shape.sizes)
    return frozenset(i for i, s in enumerate(shape.sizes) if s == mn)


def prohibited_zone(shape: PartitionShape, m: int) -> frozenset:
    """Indices at distance 1 from class ``m`` on the index line.

    No edges may run from class ``m`` into these classes, whence the name:
    ``{1}`` for the bottom class, ``{t-1}`` for the top, both neighbours
    otherwise.
    """
    t = shape.t
    if not 0 <= m <= t:
        raise IndexError(f"class index {m} out of range 0..{t}")
    if m == 0:
        return frozenset({1})
    if m == t:
        return frozenset({t - 1})
    return frozenset({m - 1, m + 1})


def dual_shape(shape: PartitionShape) -> PartitionShape:
    """Index reversal (the shape of the label-reversed colouring)."""
    return PartitionShape(shape.sizes[::-1])


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def delete_max(shape: PartitionShape, index: int) -> PartitionShape:
    """Remove one vertex from the maximum class ``index``.

    Legal only when the result is still a valid shape (when the spread is at
    least 2 it always is).  The edge bound drops by exactly
    ``|max_classes| - 1 - |max_classes ∩ prohibited_zone(index)|``: the
    removed vertex was matched into every other maximum class except those in
    the prohibited zone; ties elsewhere are unaffected.
    """
    if len(shape.sizes) < 4:
        raise ValueError("transforms need at least 4 classes")
    mx = max_classes(shape)
    if index not in mx:
        raise ValueError(f"index {index} is not a maximum class of {shape.sizes}")
    sizes = list(shape.sizes)
    sizes[index] -= 1
    new = PartitionShape(tuple(sizes))
    if not is_valid_shape(new):
        raise ValueError(
            "deletion would create two consecutive holes or empty an end class"
        )
    return new


def insert_min(shape: PartitionShape, index: int) -> PartitionShape:
    """Add one vertex to the minimum class ``index``.

    The edge bound grows by exactly
    ``t + 1 - |min_classes ∪ prohibited_zone(index)|``: the new vertex gains
    one partner in every class except the prohibited zone and the other
    minimum classes (which it cannot exceed, so the minima there stay put).
    """
    if len(shape.sizes) < 4:
        raise ValueError("transforms need at least 4 classes")
    mn = min_classes(shape)
    if index not in mn:
        raise ValueError(f"index {index} is not a min class of {shape.sizes}")
    sizes = list(shape.sizes)
    sizes[index] += 1
    new = PartitionShape(tuple(sizes))
    return new
