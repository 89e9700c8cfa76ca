"""KD-tree based character clustering (Algorithm 4 / Fig. 10 of the paper).

Characters with similar size, blanks, and profit are merged into *clusters*
that the simulated-annealing packer treats as single blocks.  This shrinks
the packing problem (fewer blocks → faster annealing, smaller solution
space) without giving up much quality, because similar characters are
interchangeable from the packer's point of view.

Similarity follows Eqn. (8) of the paper: widths, heights, horizontal and
vertical blanks, and profits must all agree within a relative ``bound``
(0.2 by default).  A KD-tree over the five-dimensional feature vectors turns
"find a similar unclustered character" into an orthogonal range query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.floorplan.packing import Block
from repro.geometry import KDTree
from repro.model import Character

__all__ = ["ClusteringConfig", "CharacterCluster", "cluster_characters"]


@dataclass
class ClusteringConfig:
    """Tuning knobs of Algorithm 4."""

    bound: float = 0.2        # relative similarity bound of Eqn. (8)
    max_members: int = 4      # keep clusters compact so they stay packable


@dataclass
class CharacterCluster:
    """A group of characters packed side by side and treated as one block.

    ``offsets[name]`` is the position of the member's lower-left corner
    relative to the cluster's lower-left corner.
    """

    name: str
    members: list[Character] = field(default_factory=list)
    offsets: dict[str, tuple[float, float]] = field(default_factory=dict)
    profit: float = 0.0

    # Geometry of the merged block -------------------------------------------------
    width: float = 0.0
    height: float = 0.0
    blank_left: float = 0.0
    blank_right: float = 0.0
    blank_top: float = 0.0
    blank_bottom: float = 0.0

    @classmethod
    def singleton(cls, character: Character, profit: float) -> "CharacterCluster":
        """A cluster containing exactly one character."""
        return cls(
            name=f"K[{character.name}]",
            members=[character],
            offsets={character.name: (0.0, 0.0)},
            profit=profit,
            width=character.width,
            height=character.height,
            blank_left=character.blank_left,
            blank_right=character.blank_right,
            blank_top=character.blank_top,
            blank_bottom=character.blank_bottom,
        )

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def hblank(self) -> float:
        """Representative horizontal blank (average of the two sides)."""
        return (self.blank_left + self.blank_right) / 2.0

    @property
    def vblank(self) -> float:
        """Representative vertical blank (average of the two sides)."""
        return (self.blank_top + self.blank_bottom) / 2.0

    def feature_vector(self) -> tuple[float, float, float, float, float]:
        """(width, height, hblank, vblank, profit) — the KD-tree coordinates."""
        return (
            self.width,
            self.height,
            max(self.hblank, 1e-6),
            max(self.vblank, 1e-6),
            max(self.profit, 1e-6),
        )

    def to_block(self) -> Block:
        """The merged geometry as a packer block."""
        return Block(
            name=self.name,
            width=self.width,
            height=self.height,
            blank_left=self.blank_left,
            blank_right=self.blank_right,
            blank_top=self.blank_top,
            blank_bottom=self.blank_bottom,
        )

    def merge(self, other: "CharacterCluster", profit: float) -> "CharacterCluster":
        """A new cluster with ``other`` attached to this cluster.

        The attachment direction (to the right or on top) is the one that
        keeps the merged bounding box closest to a square, which keeps the
        cluster easy to place during annealing.  Shared blanks are honoured:
        the attached cluster overlaps by the smaller of the touching blanks.
        """
        horizontal_overlap = min(self.blank_right, other.blank_left)
        vertical_overlap = min(self.blank_top, other.blank_bottom)
        width_h = self.width + other.width - horizontal_overlap
        height_h = max(self.height, other.height)
        width_v = max(self.width, other.width)
        height_v = self.height + other.height - vertical_overlap

        def squareness(w: float, h: float) -> float:
            return max(w, h) / max(min(w, h), 1e-9)

        merged = CharacterCluster(
            name=self.name,
            members=self.members + other.members,
            profit=self.profit + profit,
        )
        if squareness(width_h, height_h) <= squareness(width_v, height_v):
            # Attach to the right.
            dx = self.width - horizontal_overlap
            merged.width = width_h
            merged.height = height_h
            merged.offsets = dict(self.offsets)
            for name, (ox, oy) in other.offsets.items():
                merged.offsets[name] = (ox + dx, oy)
            merged.blank_left = self.blank_left
            merged.blank_right = other.blank_right
            merged.blank_bottom = min(self.blank_bottom, other.blank_bottom)
            merged.blank_top = min(self.blank_top, other.blank_top)
        else:
            # Attach on top.
            dy = self.height - vertical_overlap
            merged.width = width_v
            merged.height = height_v
            merged.offsets = dict(self.offsets)
            for name, (ox, oy) in other.offsets.items():
                merged.offsets[name] = (ox, oy + dy)
            merged.blank_bottom = self.blank_bottom
            merged.blank_top = other.blank_top
            merged.blank_left = min(self.blank_left, other.blank_left)
            merged.blank_right = min(self.blank_right, other.blank_right)
        return merged


def _similar_range(
    vector: tuple[float, ...], bound: float
) -> tuple[list[float], list[float]]:
    """Search box for Eqn. (8): |x_j - x_i| / x_j <= bound."""
    lower = [v / (1.0 + bound) for v in vector]
    upper = [v / (1.0 - bound) if bound < 1.0 else float("inf") for v in vector]
    return lower, upper


def cluster_characters(
    characters: list[Character],
    profits: list[float],
    config: ClusteringConfig | None = None,
) -> list[CharacterCluster]:
    """Run Algorithm 4 and return the resulting clusters.

    ``profits`` must align with ``characters``.  Characters that find no
    similar partner remain as singleton clusters.
    """
    config = config or ClusteringConfig()
    order = sorted(range(len(characters)), key=lambda i: -profits[i])
    clusters: dict[str, CharacterCluster] = {}
    for i in order:
        clusters[characters[i].name] = CharacterCluster.singleton(
            characters[i], profits[i]
        )

    if not clusters:
        return []

    tree: KDTree[str] = KDTree.build(
        ((clusters[name].feature_vector(), name) for name in clusters),
        dimensions=5,
    )

    merged_something = True
    visit_order = [characters[i].name for i in order]
    while merged_something:
        merged_something = False
        for name in visit_order:
            if name not in clusters:
                continue
            cluster = clusters[name]
            if cluster.size >= config.max_members:
                continue
            partner_name = _find_similar(
                cluster, name, clusters, tree, config
            )
            if partner_name is None:
                continue
            partner = clusters.pop(partner_name)
            merged = cluster.merge(partner, partner.profit)
            clusters[name] = merged
            tree.remove(partner_name)
            tree.remove(name)
            tree.insert(merged.feature_vector(), name)
            merged_something = True
    return list(clusters.values())


def _find_similar(
    cluster: CharacterCluster,
    own_name: str,
    clusters: dict[str, CharacterCluster],
    tree: KDTree[str],
    config: ClusteringConfig,
) -> str | None:
    """A live partner cluster similar to ``cluster`` (Eqn. 8), or None."""
    lower, upper = _similar_range(cluster.feature_vector(), config.bound)
    # Deterministic partner choice, independent of the tree's traversal
    # order (the scan oracle, tests/oracles/clustering.py, finds the same
    # candidates in another order).
    for candidate in sorted(tree.query_range(lower, upper)):
        if candidate == own_name or candidate not in clusters:
            continue
        other = clusters[candidate]
        if other.size + cluster.size > config.max_members:
            continue
        return candidate
    return None
