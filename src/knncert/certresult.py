"""The result type shared by every certification routine, and the challenger
loop of the polynomial ones: one world's vote names the incumbent (a tie or
an empty vote falsifies at once), then each other label, in sorted order,
searches for a world where it ties or beats the incumbent. ``refuted``
re-runs the classifier on the first world found; one that still predicts
the incumbent is a bug and raises ``AssertionError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .dataset import LabeledDataset, Ordering, PredictOutcome, predict

World = tuple[int, ...]


@dataclass(frozen=True)
class CertResult:
    """Verdict of a robustness check.

    When robust, ``certain_label`` is the single label predicted by every
    possible world and there are no witnesses. When not robust, ``witnesses``
    holds up to two (world, outcome) pairs proving it: their outcomes differ,
    or a single tie outcome suffices. ``possible_labels`` lists the labels
    actually seen predicted; the brute-force oracle reports all of them,
    the polynomial routines report the ones their witnesses establish.
    """

    robust: bool
    certain_label: Optional[str]
    possible_labels: tuple[str, ...]
    witnesses: tuple[tuple[World, PredictOutcome], ...]

    def __post_init__(self) -> None:
        if self.robust:
            assert self.certain_label is not None and not self.witnesses


def challenge(dataset: LabeledDataset, ordering: Ordering, k: int, first: World,
              find: Callable[[str, str], Optional[World]], weighted: bool = False) -> CertResult:
    """Certify by challenging the vote of the world ``first``: ``find(ell,
    ell1)`` returns a world where challenger ``ell`` ties or beats incumbent
    ``ell1``, or None when there is none."""
    outcome = predict(dataset, first, ordering, k, weighted=weighted)
    if outcome.kind != "label":
        return CertResult(False, None, (), ((first, outcome),))
    ell1 = outcome.label
    for ell in sorted(set(dataset.labels) - {ell1}):
        witness = find(ell, ell1)
        if witness is not None:
            return refuted(dataset, ordering, k, first, ell1, ell, witness, weighted)
    return CertResult(True, ell1, (ell1,), ())


def refuted(dataset: LabeledDataset, ordering: Ordering, k: int, first: World, incumbent: str,
            challenger: str, witness: World, weighted: bool = False) -> CertResult:
    """The verdict that ``witness``, found for ``challenger``, refutes the
    ``incumbent`` predicted on ``first``, once the classifier agrees."""
    outcome = predict(dataset, witness, ordering, k, weighted=weighted)
    if outcome.is_label(incumbent):
        raise AssertionError(f"witness for challenger {challenger!r} still predicts {incumbent!r}")
    possible = {incumbent}
    if outcome.kind == "label":
        possible.add(outcome.label)
    first_vote = (first, PredictOutcome.of_label(incumbent))
    return CertResult(False, None, tuple(sorted(possible)), (first_vote, (witness, outcome)))
