"""Certifiable robustness of k-NN predictions over inconsistent and
incomplete training data: exact certification, repair counting, minimum
repairs, uncertainty models, and a generator of provably hard instances."""

from .certresult import CertResult
from .dataset import (
    LabeledDataset,
    Ordering,
    PredictOutcome,
    TestPoint,
    conflicts,
    greedy_repair,
    make_dataset,
    order_by_distance,
    predict,
    surrogate_distance,
)
from .errors import CapExceededError, InputError, NotChainError, NotPrimaryKeyError
from .fdschema import (
    ChainDecision,
    Fd,
    FdSchema,
    closure,
    decide_lhs_chain,
    find_incomparable_pair,
    minimize,
    with_label_attribute,
)

__all__ = [
    "CapExceededError",
    "CertResult",
    "ChainDecision",
    "Fd",
    "FdSchema",
    "InputError",
    "LabeledDataset",
    "NotChainError",
    "NotPrimaryKeyError",
    "Ordering",
    "PredictOutcome",
    "TestPoint",
    "closure",
    "conflicts",
    "decide_lhs_chain",
    "find_incomparable_pair",
    "greedy_repair",
    "make_dataset",
    "minimize",
    "order_by_distance",
    "predict",
    "surrogate_distance",
    "with_label_attribute",
]

__version__ = "0.1.0"
