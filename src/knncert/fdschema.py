"""Functional-dependency schemas.

Attribute closures, canonical covers, and the simplification recursion
that decides whether an FD set is equivalent to one whose left-hand sides
form a chain under inclusion, and whether it amounts to a single primary
key. That one decision is the dispatch point for every polynomial
algorithm in this package: the recursion removes trivial FDs, then
repeatedly eliminates either a consensus attribute (an FD with empty lhs)
or an attribute common to every lhs, and succeeds iff the FD set empties.
The steps depend on the FDs only and come from ``_chain_steps``:
``decide_lhs_chain`` formats them as its trace and reads the key off them,
and ``decompose.build_tree`` splits level d of its tree on the d-th
consensus or common-lhs attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InputError


@dataclass(frozen=True)
class Fd:
    """A functional dependency ``lhs -> rhs`` over attribute names."""

    lhs: frozenset[str]
    rhs: frozenset[str]

    @staticmethod
    def of(lhs: Iterable[str], rhs: Iterable[str]) -> "Fd":
        return Fd(frozenset(lhs), frozenset(rhs))

    def is_trivial(self) -> bool:
        return self.rhs <= self.lhs


@dataclass(frozen=True)
class FdSchema:
    """A relation schema: an ordered attribute list plus a set of FDs."""

    attributes: tuple[str, ...]
    fds: tuple[Fd, ...]

    def __post_init__(self) -> None:
        if len(self.attributes) < 1:
            raise InputError("schema needs at least one attribute")
        if len(set(self.attributes)) != len(self.attributes):
            raise InputError("attribute names must be unique")
        if not all(isinstance(a, str) for a in self.attributes):
            raise InputError("attribute names must be strings")
        known = set(self.attributes)
        for fd in self.fds:
            if not fd.rhs:
                raise InputError("FD with empty rhs")
            bad = (fd.lhs | fd.rhs) - known
            if bad:
                raise InputError(f"FD references unknown attributes: {sorted(bad)}")

    @staticmethod
    def of(attributes: Iterable[str], fds: Iterable[tuple[Iterable[str], Iterable[str]]]) -> "FdSchema":
        return FdSchema(tuple(attributes), tuple(Fd.of(l, r) for l, r in fds))

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def index(self, name: str) -> int:
        try:
            return self.attributes.index(name)
        except ValueError:
            raise InputError(f"unknown attribute: {name!r}") from None

    def sort_attrs(self, attrs: Iterable[str]) -> list[str]:
        return sorted(attrs, key=self.index)


@dataclass(frozen=True)
class ChainDecision:
    """Outcome of the lhs-chain test, with the simplification trace, and the
    primary key in schema order when the FDs amount to one, else None."""

    is_chain_equivalent: bool
    trace: tuple[str, ...]
    key: Optional[tuple[str, ...]]


def _fire(attrs: set[str], fds: Iterable[Fd]) -> set[str]:
    result = set(attrs)
    changed = True
    while changed:
        changed = False
        for fd in fds:
            if fd.lhs <= result and not fd.rhs <= result:
                result |= fd.rhs
                changed = True
    return result


def closure(attrs: Iterable[str], schema: FdSchema) -> frozenset[str]:
    """Closure of an attribute set under the schema's FDs (fixpoint)."""
    attrs = set(attrs)
    unknown = attrs - set(schema.attributes)
    if unknown:
        raise InputError(f"unknown attributes in closure query: {sorted(unknown)}")
    return frozenset(_fire(attrs, schema.fds))


def _subtract(fds: Iterable[Fd], attr: str) -> list[Fd]:
    out = []
    for fd in fds:
        rhs = fd.rhs - {attr}
        if rhs:
            out.append(Fd(fd.lhs - {attr}, rhs))
    return out


def _chain_steps(fds: Iterable[Fd], schema: FdSchema) -> list[tuple[str, Optional[str]]]:
    """The steps of the simplification recursion on ``fds``, in order.

    Until the FDs empty: drop trivial FDs, ``("removed-trivial", None)``;
    eliminate the smallest-index rhs attribute of a consensus FD,
    ``("consensus", attr)``, or else the smallest-index attribute of every
    lhs, ``("common-lhs", attr)``; when neither exists, end with
    ``("stuck", None)``. Ties break by schema index, so steps reproduce.
    """
    fds = list(fds)
    steps: list[tuple[str, Optional[str]]] = []
    while True:
        nontrivial = [fd for fd in fds if not fd.is_trivial()]
        if len(nontrivial) != len(fds):
            steps.append(("removed-trivial", None))
        fds = nontrivial
        if not fds:
            return steps
        consensus = {a for fd in fds if not fd.lhs for a in fd.rhs}
        if consensus:
            step = ("consensus", min(consensus, key=schema.index))
        else:
            common = frozenset.intersection(*(fd.lhs for fd in fds))
            if not common:
                steps.append(("stuck", None))
                return steps
            step = ("common-lhs", min(common, key=schema.index))
        steps.append(step)
        fds = _subtract(fds, step[1])


def decide_lhs_chain(schema: FdSchema) -> ChainDecision:
    """Run the simplification recursion and report whether it empties the FDs.

    The trace lists the steps of ``_chain_steps`` as ``removed-trivial``,
    ``consensus(attr)``, ``common-lhs(attr)`` and a final ``stuck``.

    The FDs amount to a primary key K (``K -> every attribute``) iff the
    steps eliminate every attribute, the common-lhs ones first: every
    nontrivial lhs then contains K and they meet in K. With no nontrivial
    FD, K is every attribute. The key sends ``certify`` to the linear scan,
    which still checks that no block holds identical rows.
    """
    steps = _chain_steps(schema.fds, schema)
    trace = tuple(kind if attr is None else f"{kind}({attr})" for kind, attr in steps)
    chain = not steps or steps[-1][0] != "stuck"
    kinds = [kind for kind, attr in steps if attr is not None]
    common = [attr for kind, attr in steps if kind == "common-lhs"]
    key = None
    if chain and not kinds:
        key = schema.attributes
    elif len(kinds) == schema.arity and "consensus" not in kinds[:len(common)]:
        key = tuple(schema.sort_attrs(common))
    return ChainDecision(chain, trace, key)


def _fd_key(schema: FdSchema, fd: Fd) -> tuple:
    return (
        tuple(sorted(schema.index(a) for a in fd.lhs)),
        tuple(sorted(schema.index(a) for a in fd.rhs)),
    )


def minimize(schema: FdSchema) -> FdSchema:
    """Canonical cover: singleton rhs, no extraneous lhs attributes, no
    redundant FDs. Equivalent to the input (same closure on every set)."""
    split: list[Fd] = []
    for fd in schema.fds:
        for attr in schema.sort_attrs(fd.rhs):
            if attr not in fd.lhs:
                split.append(Fd.of(fd.lhs, [attr]))
    work = sorted(dict.fromkeys(split), key=lambda fd: _fd_key(schema, fd))

    # Extraneous lhs attributes, tested against the current cover.
    for i in range(len(work)):
        target = next(iter(work[i].rhs))
        lhs = set(work[i].lhs)
        for attr in schema.sort_attrs(work[i].lhs):
            if attr in lhs and target in _fire(lhs - {attr}, work):
                lhs.discard(attr)
                work[i] = Fd.of(lhs, [target])

    # Redundant FDs, removed one at a time in canonical order.
    kept = sorted(dict.fromkeys(work), key=lambda fd: _fd_key(schema, fd))
    for fd in list(kept):
        others = [g for g in kept if g is not fd]
        if next(iter(fd.rhs)) in _fire(set(fd.lhs), others):
            kept.remove(fd)

    return FdSchema(schema.attributes, tuple(sorted(kept, key=lambda fd: _fd_key(schema, fd))))


def find_incomparable_pair(schema: FdSchema) -> Optional[tuple[Fd, Fd]]:
    """First pair of FDs whose left-hand sides are mutually non-contained.

    Expects a minimized schema; returns None when the lhs sets are totally
    ordered by inclusion (the schema has an lhs chain syntactically).
    """
    fds = schema.fds
    for i in range(len(fds)):
        for j in range(i + 1, len(fds)):
            a, b = fds[i], fds[j]
            if not a.lhs <= b.lhs and not b.lhs <= a.lhs:
                return (a, b)
    return None


def with_label_attribute(schema: FdSchema, name: str = "label") -> FdSchema:
    """Append a label attribute determined by all original attributes.

    This is the schema transformation that folds uncertain labels into the
    relation itself; it preserves lhs-chain equivalence in both directions.
    """
    if name in schema.attributes:
        raise InputError(f"attribute {name!r} already present")
    new_fd = Fd.of(schema.attributes, [name])
    return FdSchema(schema.attributes + (name,), schema.fds + (new_fd,))
