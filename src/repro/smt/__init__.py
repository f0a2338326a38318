"""A from-scratch SMT solver for quantifier-free linear real arithmetic.

This package replaces Z3 in the CCmatic reproduction (no solver wheel is
available offline).  It provides:

* a hash-consed term language (:mod:`repro.smt.terms`),
* a staged compile pipeline — simplify → normalize → CNF — shared by
  every consumer (:mod:`repro.smt.compile`, :mod:`repro.smt.rewrite`),
* Tseitin CNF conversion (:mod:`repro.smt.cnf`),
* a CDCL SAT core with theory hooks (:mod:`repro.smt.sat`),
* an exact-arithmetic incremental Simplex for LRA
  (:mod:`repro.smt.simplex`, :mod:`repro.smt.theory`),
* an incremental z3-flavoured frontend with an optional query cache
  (:mod:`repro.smt.solver`),
* exact maximization of a real variable: a primal Simplex phase per
  Boolean region and OMT linear search (:mod:`repro.smt.optimize`;
  the paper's CCmatic bisects with Z3 instead).
"""

from .encodings import at_most_one, encode_max, exactly_one
from .compile import CompiledQuery, CompileStats, compile_query
from .errors import NonLinearError, SmtError, SortError, UnknownResultError
from .optimize import OptimizeResult, maximize
from .solver import (
    CheckOptions,
    Model,
    QueryCacheProtocol,
    Result,
    Solver,
    check_formulas,
    sat,
    unknown,
    unsat,
)
from .terms import (
    FALSE,
    TRUE,
    Add,
    And,
    Bool,
    BoolVal,
    Eq,
    FreshBool,
    FreshReal,
    Iff,
    Implies,
    Ite,
    Not,
    Or,
    Real,
    RealVal,
    Sum,
    Term,
    canonical_hash,
    canonical_key,
    evaluate,
    intern_stats,
    interned_count,
    substitute,
)

__all__ = [
    "Add", "And", "Bool", "BoolVal", "CheckOptions",
    "CompileStats", "CompiledQuery",
    "Eq", "FALSE", "FreshBool", "FreshReal", "Iff", "Implies", "Ite",
    "Model", "NonLinearError", "Not",
    "OptimizeResult", "Or", "QueryCacheProtocol", "Real", "RealVal",
    "Result", "SmtError", "Solver", "SortError", "Sum", "TRUE",
    "Term", "UnknownResultError", "at_most_one",
    "canonical_hash", "canonical_key", "check_formulas", "compile_query",
    "encode_max", "evaluate", "exactly_one",
    "intern_stats", "interned_count", "maximize", "sat",
    "substitute", "unknown", "unsat",
]
