"""QDIMACS parsing and serialization, plus the DNF cube sidecar format.

The parser is tolerant the way real-world QDIMACS consumers are: clause
counts in the header are advisory (mismatch warns instead of failing), free
matrix variables are bound by a synthetic outermost existential block and
flagged, clauses may span lines, and a leading UTF-8 byte-order mark is
dropped. A parse keeps one int per distinct literal token, which every term
holding it shares. The serializer is deterministic, so parse/serialize
round-trips are byte-stable; it writes each line of a comment as its own
comment line.

The DNF sidecar format is project-defined since QDIMACS has no cube
standard: header ``p dnf <vars> <cubes>``, QDIMACS quantifier lines, then
one cube per line terminated by 0.
"""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import neg
from typing import IO, Iterable

from .errors import QdimacsParseError, ValidationError
from .formulas import Formula, clauses_to_formula

EXISTS = "e"
FORALL = "a"


class QdimacsWarning(UserWarning):
    """Recoverable oddity in QDIMACS/DNF input (kept, but worth flagging)."""


def other_quantifier(q: str) -> str:
    return FORALL if q == EXISTS else EXISTS


def normalize_clause(lits: Iterable[int]) -> tuple[int, ...] | None:
    """Sort and deduplicate a clause/cube; None when it contains l and -l."""
    unique = set(lits)
    if not unique.isdisjoint(map(neg, unique)):
        return None
    # no two literals left share a variable, so abs alone orders them
    return tuple(sorted(unique, key=abs))


@dataclass(frozen=True, slots=True)
class QuantifierBlock:
    quantifier: str
    variables: tuple[int, ...]

    def __post_init__(self):
        if self.quantifier not in (EXISTS, FORALL):
            raise ValidationError(f"quantifier must be 'e' or 'a', got {self.quantifier!r}")
        if not self.variables:
            raise ValidationError("quantifier block must be nonempty")
        if any(v < 1 for v in self.variables):
            raise ValidationError("variable ids must be positive")
        if len(set(self.variables)) != len(self.variables):
            raise ValidationError("duplicate variable within a block")


@dataclass(frozen=True)
class Prefix:
    blocks: tuple[QuantifierBlock, ...] = ()

    def __post_init__(self):
        seen: set[int] = set()
        for i, block in enumerate(self.blocks):
            if i and block.quantifier == self.blocks[i - 1].quantifier:
                raise ValidationError("adjacent blocks share a quantifier; merge them")
            overlap = seen.intersection(block.variables)
            if overlap:
                raise ValidationError(f"variable {min(overlap)} quantified twice")
            seen.update(block.variables)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, Iterable[int]]]) -> "Prefix":
        """Build a prefix, merging adjacent same-quantifier groups."""
        merged: list[tuple[str, list[int]]] = []
        for q, vs in pairs:
            vs = list(vs)
            if not vs:
                continue
            if merged and merged[-1][0] == q:
                merged[-1][1].extend(vs)
            else:
                merged.append((q, vs))
        return cls(tuple(QuantifierBlock(q, tuple(vs)) for q, vs in merged))

    @cached_property
    def variables(self) -> tuple[int, ...]:
        return tuple(v for block in self.blocks for v in block.variables)

    @cached_property
    def domain(self) -> tuple[int, ...]:
        """The variables in increasing order, shared by signed permutations."""
        return tuple(sorted(self.variables))

    @cached_property
    def _block_index(self) -> dict[int, int]:
        return {v: bi for bi, block in enumerate(self.blocks) for v in block.variables}

    @cached_property
    def _position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.variables)}

    @property
    def n(self) -> int:
        return len(self.variables)

    def quantifier_of(self, var: int) -> str:
        return self.blocks[self.block_index_of(var)].quantifier

    def block_index_of(self, var: int) -> int:
        try:
            return self._block_index[var]
        except KeyError:
            raise ValidationError(f"variable {var} is not quantified") from None

    def flipped(self) -> "Prefix":
        """Same blocks with every quantifier swapped."""
        return Prefix(
            tuple(QuantifierBlock(other_quantifier(b.quantifier), b.variables) for b in self.blocks)
        )


def _check_closed(prefix: Prefix, terms, message: str) -> None:
    """Raise ``message`` with the first variable of ``terms``, in term
    order, that ``prefix`` does not quantify."""
    quantified = set(prefix.variables)
    # each distinct literal once, however many terms hold it
    if not quantified.issuperset(map(abs, set(chain.from_iterable(terms)))):
        free = next(abs(l) for t in terms for l in t if abs(l) not in quantified)
        raise ValidationError(message.format(free))


@dataclass(frozen=True)
class QbfInstance:
    prefix: Prefix
    clauses: tuple[tuple[int, ...], ...]
    comments: tuple[str, ...] = field(default=(), compare=False)
    free_vars: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self):
        message = "matrix variable {} is not quantified (instance must be closed)"
        _check_closed(self.prefix, self.clauses, message)

    @property
    def n_vars(self) -> int:
        return max(self.prefix.variables, default=0)

    @cached_property
    def matrix_vars(self) -> frozenset[int]:
        return frozenset(abs(l) for clause in self.clauses for l in clause)

    @property
    def unused_vars(self) -> tuple[int, ...]:
        """Quantified variables that never occur in the matrix."""
        return tuple(v for v in self.prefix.variables if v not in self.matrix_vars)

    @cached_property
    def _formula(self) -> Formula:
        return clauses_to_formula(self.clauses)

    @cached_property
    def _literal_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(tuple(sorted(set(c))) for c in self.clauses))

    def to_formula(self) -> Formula:
        return self._formula


def _read_text(source: str | bytes | IO) -> str:
    data = source if isinstance(source, (str, bytes)) else source.read()
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    return text.removeprefix("\ufeff")  # a UTF-8 byte-order mark


# per format: the word for one term, and the word for a term holding l and -l
_TERMS = {"cnf": ("clause", "tautological"), "dnf": ("cube", "contradictory")}


def _column(raw: str, tok: str) -> int:
    """1-based column of the first whitespace-delimited ``tok`` in ``raw``."""
    return re.search(rf"(?<!\S){re.escape(tok)}(?!\S)", raw).start() + 1


def _read(source: str | bytes | IO, kind: str):
    """One token walk for 'p cnf' and 'p dnf' text.

    Returns (comments, prefix, terms, free): the normalized terms, with
    those holding l and -l dropped, and the term variables that no
    quantifier line binds. A clause file binds those in a leading
    existential block; a cube file is rejected at the line where the first
    of them appears. Warnings come in this order: unterminated final term,
    dropped terms, free variables, variable count, term count.
    """
    noun, void = _TERMS[kind]
    comments: list[str] = []
    pairs: list[tuple[str, list[int]]] = []
    terms: list[tuple[int, ...]] = []
    declared: tuple[int, int] | None = None
    bound: set[int] = set()  # v and -v for every quantified variable v
    unquantified: dict[int, int] = {}  # variable -> line of first appearance
    pending: dict[int, int] = {}  # the same, within the open term
    current: list[int] = []
    current_line = 0
    dropped = 0
    ints: dict[str, int] = {}  # one int per distinct token, shared by the terms

    def close_term() -> None:
        nonlocal dropped
        term = normalize_clause(current)
        if term is None:
            dropped += 1
        else:
            terms.append(term)
            if pending:
                for l in term:
                    if abs(l) in pending:
                        unquantified.setdefault(abs(l), pending[abs(l)])
        current.clear()
        pending.clear()

    for lineno, raw in enumerate(_read_text(source).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        first = line[0]
        if first == "c":
            comments.append(line[1:].lstrip())
            continue
        if first == "p":
            fields = line.split()
            if declared is not None:
                raise QdimacsParseError("duplicate problem line", lineno)
            if len(fields) != 4 or fields[1] != kind:
                raise QdimacsParseError(f"expected 'p {kind} <vars> <{noun}s>'", lineno)
            try:
                declared = (int(fields[2]), int(fields[3]))
            except ValueError:
                raise QdimacsParseError("problem line counts must be integers", lineno) from None
            if declared[0] < 0 or declared[1] < 0:
                raise QdimacsParseError("problem line counts must be nonnegative", lineno)
            continue
        if first == EXISTS or first == FORALL:
            # quantifier line: 'a' or 'e' followed by variable ids and 0
            if declared is None:
                raise QdimacsParseError("quantifier line before problem line", lineno)
            if terms or dropped or current:
                raise QdimacsParseError("quantifier line after first clause", lineno)
            body = line[1:].split()
            try:
                ids = [int(tok) for tok in body]
            except ValueError:
                raise QdimacsParseError("quantifier line contains a non-integer", lineno) from None
            if not ids or ids[-1] != 0:
                raise QdimacsParseError("quantifier line must end with 0", lineno)
            ids = ids[:-1]
            if any(v == 0 for v in ids):
                raise QdimacsParseError("variable 0 inside quantifier line", lineno)
            if any(v < 0 for v in ids):
                raise QdimacsParseError("negative variable in quantifier line", lineno)
            if not ids:
                raise QdimacsParseError("empty quantifier block", lineno)
            for v in ids:
                if v in bound:
                    raise QdimacsParseError(f"variable {v} quantified twice", lineno)
                bound.add(v)
                bound.add(-v)
            pairs.append((first, ids))
            continue
        # clause/cube tokens, possibly spanning lines
        if declared is None:
            raise QdimacsParseError("clause before problem line", lineno)
        for tok in line.split():
            lit = ints.get(tok)
            if lit is None:
                try:
                    lit = ints[tok] = int(tok)
                except ValueError:
                    raise QdimacsParseError(
                        f"unexpected token {tok!r}", lineno, _column(raw, tok)
                    ) from None
            if lit:
                if not current:
                    current_line = lineno
                if lit not in bound:
                    pending.setdefault(abs(lit), lineno)
                current.append(lit)
            elif tok != "0":
                raise QdimacsParseError("variable 0 in clause body", lineno, _column(raw, tok))
            else:
                close_term()

    if declared is None:
        raise QdimacsParseError("missing problem line", 1)
    if current:
        warnings.warn(
            QdimacsWarning(f"unterminated final {noun} at line {current_line} (missing 0); kept")
        )
        close_term()
    if kind == "dnf" and unquantified:
        var, lineno = next(iter(unquantified.items()))
        raise QdimacsParseError(f"cube variable {var} is not quantified", lineno)
    if dropped:
        warnings.warn(QdimacsWarning(f"dropped {dropped} {void} {noun}(s)"))
    free = sorted(unquantified)
    if free:
        pairs.insert(0, (EXISTS, free))
        warnings.warn(QdimacsWarning(f"free variables bound existentially: {free}"))
    declared_vars, declared_terms = declared
    max_var = max((*bound, *free), default=0)
    if kind == "cnf" and declared_vars < max_var:
        warnings.warn(
            QdimacsWarning(f"header declares {declared_vars} variables but {max_var} appear")
        )
    if declared_terms != len(terms) + dropped:
        warnings.warn(
            QdimacsWarning(
                f"header declares {declared_terms} {noun}s but {len(terms) + dropped} appear"
            )
        )
    return tuple(comments), Prefix.from_pairs(pairs), tuple(terms), tuple(free)


def _write(kind: str, prefix: Prefix, terms, comments: Iterable[str] = ()) -> str:
    out = io.StringIO()
    # a comment line per line of each comment, so no line break starts a clause
    for line in chain.from_iterable(c.splitlines() or [""] for c in comments):
        out.write(f"c {line}\n" if line else "c\n")
    out.write(f"p {kind} {max(prefix.variables, default=0)} {len(terms)}\n")
    for block in prefix.blocks:
        out.write(f"{block.quantifier} {' '.join(map(str, block.variables))} 0\n")
    out.write("".join([" ".join(map(str, term)) + " 0\n" if term else "0\n" for term in terms]))
    return out.getvalue()


def parse_qdimacs(source: str | bytes | IO) -> QbfInstance:
    """Parse QDIMACS text into a normalized, closed instance.

    Free matrix variables are bound by a synthetic outermost existential
    block and reported in ``free_vars``. Header count mismatches warn.
    """
    comments, prefix, clauses, free = _read(source, "cnf")
    return QbfInstance(prefix=prefix, clauses=clauses, comments=comments, free_vars=free)


def serialize_qdimacs(instance: QbfInstance) -> str:
    """Deterministic QDIMACS text for a normalized instance."""
    return _write("cnf", instance.prefix, instance.clauses, instance.comments)


def serialize_dnf(prefix: Prefix, cubes: Iterable[tuple[int, ...]]) -> str:
    """DNF sidecar text: cube disjunction under the given prefix."""
    cubes = tuple(cubes)
    _check_closed(prefix, cubes, "cube variable {} is not quantified")
    return _write("dnf", prefix, cubes)


def parse_dnf(source: str | bytes | IO) -> tuple[Prefix, tuple[tuple[int, ...], ...]]:
    """Parse the DNF sidecar format back into (prefix, cubes); a cube
    variable that no quantifier line binds is an error."""
    _, prefix, cubes, _ = _read(source, "dnf")
    return prefix, cubes
