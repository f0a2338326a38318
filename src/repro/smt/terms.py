"""Hash-consed term language for the QF-LRA + Bool solver.

Terms form an immutable DAG.  Structurally identical terms are interned, so
identity (``is`` / ``id``) doubles as structural equality, which keeps the
CNF conversion and linear-arithmetic normalization cheap.

The language is deliberately small — exactly what the CCmatic encodings
need:

* Boolean connectives: ``Not``, ``And``, ``Or``, ``Implies``, ``Iff``,
  boolean ``Ite``.
* Real arithmetic: variables, rational constants, n-ary ``+``, negation,
  multiplication by a constant, real-sorted ``Ite``.
* Atoms: ``<=``, ``<``, ``==`` over reals (``>=``/``>`` are normalized to
  ``<=``/``<`` at construction; ``!=`` becomes ``Not(==)``).

Non-linear products raise :class:`~repro.smt.errors.NonLinearError` at
normalization time (see :mod:`repro.smt.linarith`).
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .errors import SortError

Rational = Union[int, Fraction]


class Sort(Enum):
    """Sort of a term: boolean or real-valued."""

    BOOL = "Bool"
    REAL = "Real"


class Kind(Enum):
    """Syntactic constructor of a term node."""

    CONST = "const"
    VAR = "var"
    NOT = "not"
    AND = "and"
    OR = "or"
    IMPLIES = "=>"
    IFF = "<=>"
    ITE = "ite"
    ADD = "+"
    NEG = "neg"
    SCALE = "scale"  # constant * term
    LE = "<="
    LT = "<"
    EQ = "=="


_BOOL_KINDS = frozenset(
    {Kind.NOT, Kind.AND, Kind.OR, Kind.IMPLIES, Kind.IFF, Kind.LE, Kind.LT, Kind.EQ}
)

_fresh_counter = itertools.count()


class Term:
    """A node in the interned term DAG.

    Do not construct directly; use the builder functions (:func:`Real`,
    :func:`Bool`, :func:`And`, ...) or Python operators on existing terms.
    """

    __slots__ = ("kind", "sort", "args", "name", "value", "_hash")

    _table: dict = {}
    #: intern-table accounting (exported via :func:`intern_stats`)
    _hits: int = 0
    _misses: int = 0

    def __new__(
        cls,
        kind: Kind,
        sort: Sort,
        args: tuple = (),
        name: str | None = None,
        value: Fraction | bool | None = None,
    ):
        key = (kind, sort, tuple(id(a) for a in args), name, value)
        cached = cls._table.get(key)
        if cached is not None:
            cls._hits += 1
            return cached
        cls._misses += 1
        self = object.__new__(cls)
        self.kind = kind
        self.sort = sort
        self.args = args
        self.name = name
        self.value = value
        self._hash = hash(key)
        cls._table[key] = self
        return self

    # -- introspection ---------------------------------------------------

    def __hash__(self) -> int:
        return self._hash

    def is_var(self) -> bool:
        """True for free variables of either sort."""
        return self.kind is Kind.VAR

    def is_const(self) -> bool:
        """True for boolean/rational literal constants."""
        return self.kind is Kind.CONST

    def is_atom(self) -> bool:
        """True for arithmetic atoms (``<=``, ``<``, ``==``)."""
        return self.kind in (Kind.LE, Kind.LT, Kind.EQ)

    def iter_dag(self) -> Iterator["Term"]:
        """Yield every distinct subterm once, children before parents."""
        seen: set[int] = set()
        stack: list[tuple[Term, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                yield node
            else:
                stack.append((node, True))
                for child in node.args:
                    if id(child) not in seen:
                        stack.append((child, False))

    # -- boolean operators ------------------------------------------------

    def __invert__(self) -> "Term":
        return Not(self)

    def __and__(self, other: "Term") -> "Term":
        return And(self, other)

    def __or__(self, other: "Term") -> "Term":
        return Or(self, other)

    # -- arithmetic operators ----------------------------------------------

    def __add__(self, other) -> "Term":
        return Add(self, _coerce_real(other))

    def __radd__(self, other) -> "Term":
        return Add(_coerce_real(other), self)

    def __sub__(self, other) -> "Term":
        return Add(self, Neg(_coerce_real(other)))

    def __rsub__(self, other) -> "Term":
        return Add(_coerce_real(other), Neg(self))

    def __neg__(self) -> "Term":
        return Neg(self)

    def __mul__(self, other) -> "Term":
        return Mul(self, other)

    def __rmul__(self, other) -> "Term":
        return Mul(other, self)

    def __truediv__(self, other) -> "Term":
        if isinstance(other, Term):
            if not other.is_const():
                raise SortError("division only by rational constants")
            other = other.value
        return Mul(Fraction(1, 1) / Fraction(other), self)

    # -- comparisons produce atoms ------------------------------------------

    def __le__(self, other) -> "Term":
        return _atom(Kind.LE, self, _coerce_real(other))

    def __lt__(self, other) -> "Term":
        return _atom(Kind.LT, self, _coerce_real(other))

    def __ge__(self, other) -> "Term":
        return _atom(Kind.LE, _coerce_real(other), self)

    def __gt__(self, other) -> "Term":
        return _atom(Kind.LT, _coerce_real(other), self)

    def eq(self, other) -> "Term":
        """Equality atom (``==`` is kept as Python identity comparison)."""
        if self.sort is Sort.BOOL:
            return Iff(self, _coerce_bool(other))
        return _atom(Kind.EQ, self, _coerce_real(other))

    def neq(self, other) -> "Term":
        """Disequality: ``Not(self.eq(other))``."""
        return Not(self.eq(other))

    # -- printing -----------------------------------------------------------

    def __repr__(self) -> str:
        return _to_str(self)


def _to_str(t: Term) -> str:
    if t.kind is Kind.CONST:
        return str(t.value)
    if t.kind is Kind.VAR:
        return t.name or "?"
    if t.kind is Kind.NOT:
        return f"(not {t.args[0]})"
    if t.kind is Kind.NEG:
        return f"(- {t.args[0]})"
    if t.kind is Kind.SCALE:
        return f"({t.value} * {t.args[0]})"
    if t.kind is Kind.ITE:
        return f"(ite {t.args[0]} {t.args[1]} {t.args[2]})"
    inner = " ".join(str(a) for a in t.args)
    return f"({t.kind.value} {inner})"


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

TRUE = Term(Kind.CONST, Sort.BOOL, value=True)
FALSE = Term(Kind.CONST, Sort.BOOL, value=False)


def BoolVal(value: bool) -> Term:
    """Boolean constant."""
    return TRUE if value else FALSE


def RealVal(value: Rational) -> Term:
    """Rational constant."""
    return Term(Kind.CONST, Sort.REAL, value=Fraction(value))


def Bool(name: str) -> Term:
    """Boolean variable (interned by name)."""
    return Term(Kind.VAR, Sort.BOOL, name=name)


def Real(name: str) -> Term:
    """Real-valued variable (interned by name)."""
    return Term(Kind.VAR, Sort.REAL, name=name)


def FreshBool(prefix: str = "b") -> Term:
    """Boolean variable with a globally unique name."""
    return Bool(f"{prefix}!{next(_fresh_counter)}")


def FreshReal(prefix: str = "x") -> Term:
    """Real variable with a globally unique name."""
    return Real(f"{prefix}!{next(_fresh_counter)}")


def _coerce_real(value) -> Term:
    if isinstance(value, Term):
        if value.sort is not Sort.REAL:
            raise SortError(f"expected Real term, got {value!r}")
        return value
    return RealVal(value)


def _coerce_bool(value) -> Term:
    if isinstance(value, Term):
        if value.sort is not Sort.BOOL:
            raise SortError(f"expected Bool term, got {value!r}")
        return value
    return BoolVal(bool(value))


def _flatten(kind: Kind, args: Iterable[Term]) -> list[Term]:
    out: list[Term] = []
    for a in args:
        if a.kind is kind:
            out.extend(a.args)
        else:
            out.append(a)
    return out


def And(*args) -> Term:
    """N-ary conjunction; flattens, drops ``True``, short-circuits ``False``."""
    terms = _flatten(Kind.AND, (_coerce_bool(a) for a in args))
    kept = []
    for t in terms:
        if t is FALSE:
            return FALSE
        if t is not TRUE:
            kept.append(t)
    if not kept:
        return TRUE
    if len(kept) == 1:
        return kept[0]
    return Term(Kind.AND, Sort.BOOL, tuple(kept))


def Or(*args) -> Term:
    """N-ary disjunction; flattens, drops ``False``, short-circuits ``True``."""
    terms = _flatten(Kind.OR, (_coerce_bool(a) for a in args))
    kept = []
    for t in terms:
        if t is TRUE:
            return TRUE
        if t is not FALSE:
            kept.append(t)
    if not kept:
        return FALSE
    if len(kept) == 1:
        return kept[0]
    return Term(Kind.OR, Sort.BOOL, tuple(kept))


def Not(arg) -> Term:
    """Negation with double-negation and constant folding."""
    t = _coerce_bool(arg)
    if t is TRUE:
        return FALSE
    if t is FALSE:
        return TRUE
    if t.kind is Kind.NOT:
        return t.args[0]
    return Term(Kind.NOT, Sort.BOOL, (t,))


def Implies(a, b) -> Term:
    """Implication ``a => b``."""
    a, b = _coerce_bool(a), _coerce_bool(b)
    if a is TRUE:
        return b
    if a is FALSE or b is TRUE:
        return TRUE
    if b is FALSE:
        return Not(a)
    return Term(Kind.IMPLIES, Sort.BOOL, (a, b))


def Iff(a, b) -> Term:
    """Bi-implication ``a <=> b``."""
    a, b = _coerce_bool(a), _coerce_bool(b)
    if a is b:
        return TRUE
    if a is TRUE:
        return b
    if b is TRUE:
        return a
    if a is FALSE:
        return Not(b)
    if b is FALSE:
        return Not(a)
    return Term(Kind.IFF, Sort.BOOL, (a, b))


def Ite(cond, then, other) -> Term:
    """If-then-else; real- or bool-sorted depending on the branches."""
    cond = _coerce_bool(cond)
    if isinstance(then, Term) and then.sort is Sort.BOOL:
        then, other = _coerce_bool(then), _coerce_bool(other)
        sort = Sort.BOOL
    else:
        then, other = _coerce_real(then), _coerce_real(other)
        sort = Sort.REAL
    if cond is TRUE:
        return then
    if cond is FALSE:
        return other
    if then is other:
        return then
    return Term(Kind.ITE, sort, (cond, then, other))


def Add(*args) -> Term:
    """N-ary sum with constant folding of all-constant sums."""
    terms = _flatten(Kind.ADD, (_coerce_real(a) for a in args))
    terms = [t for t in terms if not (t.is_const() and t.value == 0)]
    if not terms:
        return RealVal(0)
    if len(terms) == 1:
        return terms[0]
    if all(t.is_const() for t in terms):
        return RealVal(sum(t.value for t in terms))
    return Term(Kind.ADD, Sort.REAL, tuple(terms))


def Sum(args: Iterable) -> Term:
    """Sum of an iterable of real terms/constants."""
    return Add(*list(args))


def Neg(arg) -> Term:
    """Arithmetic negation."""
    t = _coerce_real(arg)
    if t.is_const():
        return RealVal(-t.value)
    if t.kind is Kind.NEG:
        return t.args[0]
    return Term(Kind.NEG, Sort.REAL, (t,))


def Mul(a, b) -> Term:
    """Product. At least one factor must be a rational constant.

    Non-constant * non-constant is represented structurally but rejected at
    linear-arithmetic normalization time; callers that need products of two
    unknowns should linearize (see
    :meth:`repro.core.generator_smt.SmtGenerator._rule_term`).
    """
    ta = a if isinstance(a, Term) else RealVal(a)
    tb = b if isinstance(b, Term) else RealVal(b)
    if ta.sort is not Sort.REAL or tb.sort is not Sort.REAL:
        raise SortError("Mul requires real-sorted operands")
    if ta.is_const() and tb.is_const():
        return RealVal(ta.value * tb.value)
    if tb.is_const():
        ta, tb = tb, ta
    if ta.is_const():
        c = ta.value
        if c == 0:
            return RealVal(0)
        if c == 1:
            return tb
        if tb.kind is Kind.SCALE:
            return Term(Kind.SCALE, Sort.REAL, tb.args, value=c * tb.value)
        return Term(Kind.SCALE, Sort.REAL, (tb,), value=c)
    # Structurally allowed; linarith will raise NonLinearError if reached.
    return Term(Kind.SCALE, Sort.REAL, (ta, tb), value=None)


def _atom(kind: Kind, lhs: Term, rhs: Term) -> Term:
    if lhs.sort is not Sort.REAL or rhs.sort is not Sort.REAL:
        raise SortError("comparison operands must be real-sorted")
    if lhs.is_const() and rhs.is_const():
        if kind is Kind.LE:
            return BoolVal(lhs.value <= rhs.value)
        if kind is Kind.LT:
            return BoolVal(lhs.value < rhs.value)
        return BoolVal(lhs.value == rhs.value)
    return Term(kind, Sort.BOOL, (lhs, rhs))


def Eq(a, b) -> Term:
    """Equality over reals (or Iff over booleans)."""
    if isinstance(a, Term) and a.sort is Sort.BOOL:
        return Iff(a, b)
    if isinstance(b, Term) and b.sort is Sort.BOOL:
        return Iff(a, b)
    return _coerce_real(a).eq(b)


def substitute(term: Term, mapping: Mapping[Term, Term]) -> Term:
    """Simultaneously substitute subterms per ``mapping`` (bottom-up)."""
    cache: dict[int, Term] = {id(k): v for k, v in mapping.items()}

    def walk(t: Term) -> Term:
        hit = cache.get(id(t))
        if hit is not None:
            return hit
        if not t.args:
            cache[id(t)] = t
            return t
        new_args = tuple(walk(a) for a in t.args)
        if all(n is o for n, o in zip(new_args, t.args)):
            out = t
        else:
            out = _rebuild(t, new_args)
        cache[id(t)] = out
        return out

    return walk(term)


def _rebuild(t: Term, args: tuple[Term, ...]) -> Term:
    k = t.kind
    if k is Kind.NOT:
        return Not(args[0])
    if k is Kind.AND:
        return And(*args)
    if k is Kind.OR:
        return Or(*args)
    if k is Kind.IMPLIES:
        return Implies(*args)
    if k is Kind.IFF:
        return Iff(*args)
    if k is Kind.ITE:
        return Ite(*args)
    if k is Kind.ADD:
        return Add(*args)
    if k is Kind.NEG:
        return Neg(args[0])
    if k is Kind.SCALE:
        if t.value is None:
            return Mul(args[0], args[1])
        return Mul(t.value, args[0])
    if k in (Kind.LE, Kind.LT, Kind.EQ):
        return _atom(k, args[0], args[1])
    raise AssertionError(f"unexpected kind {k}")


#: kinds whose argument order does not affect meaning; their children are
#: sorted during canonical serialization so construction order cannot
#: change a query's cache key
_COMMUTATIVE_KINDS = frozenset({Kind.AND, Kind.OR, Kind.ADD, Kind.IFF, Kind.EQ})

#: id(term) -> canonical serialization.  Interned terms are never
#: released (``Term._table`` keeps strong references), so ids are stable
#: and this memo can never alias two distinct terms.
_canonical_memo: dict[int, str] = {}


def canonical_key(term: Term) -> str:
    """A content-addressed serialization of ``term``.

    Properties the query cache relies on:

    * **injective** — structurally distinct terms serialize differently
      (sorts, names, and exact rational values are all included);
    * **order-insensitive** — arguments of commutative connectives
      (``And``/``Or``/``Add``/``Iff``/``==``) are sorted, so
      ``And(a, b)`` and ``And(b, a)`` share a key;
    * **process-independent** — built from names and values only (no
      ``id()``/``hash()``), so keys agree across worker processes and
      survive on-disk caching.
    """
    hit = _canonical_memo.get(id(term))
    if hit is not None:
        return hit
    # iterative post-order: children serialized before parents
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in _canonical_memo:
            continue
        if not expanded:
            stack.append((node, True))
            for child in node.args:
                if id(child) not in _canonical_memo:
                    stack.append((child, False))
            continue
        k = node.kind
        if k is Kind.CONST:
            key = f"(c {node.sort.value} {node.value})"
        elif k is Kind.VAR:
            key = f"(v {node.sort.value} {node.name})"
        else:
            parts = [_canonical_memo[id(a)] for a in node.args]
            if k in _COMMUTATIVE_KINDS:
                parts.sort()
            coeff = f" {node.value}" if k is Kind.SCALE and node.value is not None else ""
            key = f"({k.value}{coeff} {' '.join(parts)})"
        _canonical_memo[id(node)] = key
    return _canonical_memo[id(term)]


def canonical_hash(terms: Iterable[Term]) -> str:
    """Content hash of an assertion *set*.

    The keys of the individual assertions are deduplicated and sorted, so
    neither assertion order nor repetition changes the hash: two solver
    states with the same set of constraints — however they were built —
    address the same cache entry.
    """
    import hashlib

    keys = sorted({canonical_key(t) for t in terms})
    h = hashlib.sha256()
    for k in keys:
        h.update(k.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Intern-table accounting
# ---------------------------------------------------------------------------
#
# ``Term._table`` holds a strong reference to every term ever built, so a
# long-lived process grows monotonically; :func:`intern_stats` makes that
# growth observable.  Pooled workers bound it by recycling after a task
# quota (:class:`repro.runtime.workers.WorkerPool`).


def interned_count() -> int:
    """Number of live interned terms."""
    return len(Term._table)


def intern_stats() -> dict:
    """Intern-table accounting: size plus cumulative hit/miss counts."""
    return {
        "interned": len(Term._table),
        "hits": Term._hits,
        "misses": Term._misses,
    }


def evaluate(term: Term, env: Mapping[Term, object]):
    """Evaluate a term under a full assignment ``env`` (vars -> bool/Fraction).

    Used by tests and the enumerative generator to cross-check the solver.
    """
    cache: dict[int, object] = {}

    def walk(t: Term):
        got = cache.get(id(t))
        if got is not None or id(t) in cache:
            return got
        k = t.kind
        if k is Kind.CONST:
            val = t.value
        elif k is Kind.VAR:
            val = env[t]
            if t.sort is Sort.REAL:
                val = Fraction(val)
        elif k is Kind.NOT:
            val = not walk(t.args[0])
        elif k is Kind.AND:
            val = all(walk(a) for a in t.args)
        elif k is Kind.OR:
            val = any(walk(a) for a in t.args)
        elif k is Kind.IMPLIES:
            val = (not walk(t.args[0])) or walk(t.args[1])
        elif k is Kind.IFF:
            val = bool(walk(t.args[0])) == bool(walk(t.args[1]))
        elif k is Kind.ITE:
            val = walk(t.args[1]) if walk(t.args[0]) else walk(t.args[2])
        elif k is Kind.ADD:
            val = sum(walk(a) for a in t.args)
        elif k is Kind.NEG:
            val = -walk(t.args[0])
        elif k is Kind.SCALE:
            if t.value is None:
                val = walk(t.args[0]) * walk(t.args[1])
            else:
                val = t.value * walk(t.args[0])
        elif k is Kind.LE:
            val = walk(t.args[0]) <= walk(t.args[1])
        elif k is Kind.LT:
            val = walk(t.args[0]) < walk(t.args[1])
        elif k is Kind.EQ:
            val = walk(t.args[0]) == walk(t.args[1])
        else:
            raise AssertionError(f"unexpected kind {k}")
        cache[id(t)] = val
        return val

    return walk(term)
