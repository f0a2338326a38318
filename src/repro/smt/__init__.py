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
* an incremental z3-flavoured frontend (:mod:`repro.smt.solver`),
* binary-search optimization (:mod:`repro.smt.optimize`).
"""

from .encodings import (
    at_most_one,
    bool_indicator,
    encode_abs,
    encode_max,
    encode_min,
    exactly_one,
    select_product,
    selected_constant,
)
from .compile import CompiledQuery, CompileStats, compile_query
from .errors import (
    BudgetExceededError,
    NonLinearError,
    SmtError,
    SortError,
    UnknownResultError,
)
from .optimize import OptimizeResult, maximize, minimize
from .session import SessionStats, SolverSession
from .solver import CheckOptions, Model, Result, Solver, check_formulas, sat, unknown, unsat
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
    "Add", "And", "Bool", "BoolVal", "BudgetExceededError", "CheckOptions",
    "CompileStats", "CompiledQuery",
    "Eq", "FALSE", "FreshBool", "FreshReal", "Iff", "Implies", "Ite",
    "Model", "NonLinearError", "Not",
    "OptimizeResult", "Or", "Real", "RealVal", "Result", "SessionStats",
    "SmtError", "Solver", "SolverSession", "SortError", "Sum", "TRUE",
    "Term", "UnknownResultError", "at_most_one", "bool_indicator",
    "canonical_hash", "canonical_key", "check_formulas", "compile_query",
    "encode_abs", "encode_max", "encode_min", "evaluate", "exactly_one",
    "intern_stats", "interned_count", "maximize", "minimize", "sat",
    "select_product", "selected_constant", "substitute", "unknown", "unsat",
]
