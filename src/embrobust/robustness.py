"""Robustness index: same-bio vs same-confounder neighbor counts over top-k ranks.

The index is the ratio of two totals taken over every sample's k nearest
other samples: how many neighbors share the biological label (numerator)
versus how many share the confounder label (denominator). A value above 1
means biological organization dominates; the chance-level bounds depend
only on the label composition.

R_k is the k-prefix of the frequency curves' counts: both totals are the
per-rank same-label counts of ``neighbors._same_label_counts``, summed over
ranks 1..k, so the index ranks and counts nothing itself.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .dataset import EmbeddingDataset, chance_levels
from .neighbors import NeighborTable, _same_label_counts

DEFAULT_K = 50


class UndefinedIndexError(ValueError):
    """Denominator of the index is zero: no same-confounder neighbors within k."""

    def __init__(self, k: int, numerator: int):
        super().__init__(
            f"undefined index: no same-confounder neighbors within k={k} "
            f"(numerator was {numerator})")
        self.k = k
        self.numerator = numerator


@dataclass(frozen=True)
class RobustnessReport:
    k: int
    numerator: int
    denominator: int
    r_k: float
    r_min: float
    r_max: float

    @property
    def r_k_display(self) -> str:
        """Two-significant-digit form used in bar labels."""
        return f"{self.r_k:.2g}"

    def to_dict(self) -> dict:
        return asdict(self)


def robustness_index(ds: EmbeddingDataset, nt: NeighborTable, k: int = DEFAULT_K) -> RobustnessReport:
    """Compute the index at depth k with its chance-level bounds.

    Self is never its own neighbor. Raises ``UndefinedIndexError`` when no
    neighbor within k shares the confounder label, and ``ValueError`` when k
    exceeds the usable neighbor depth (no silent clamping).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > nt.max_rank:
        raise ValueError(f"k={k} exceeds usable neighbor depth {nt.max_rank}")
    numerator, denominator = (int(c) for c in _same_label_counts(ds, nt, k).sum(axis=1))
    if denominator == 0:
        raise UndefinedIndexError(k, numerator)
    r_min, r_max = robustness_bounds(ds)
    return RobustnessReport(
        k=k, numerator=numerator, denominator=denominator,
        r_k=numerator / denominator, r_min=r_min, r_max=r_max)


def robustness_bounds(ds: EmbeddingDataset) -> tuple[float, float]:
    """Chance-level bounds of the index for this label composition.

    Under perfect biological organization the numerator is n*k while the
    denominator sits at chance, giving r_max = 1/p_conf; the converse gives
    r_min = p_bio. Both are independent of k.
    """
    p_bio, p_conf = chance_levels(ds)
    return p_bio, 1.0 / p_conf
