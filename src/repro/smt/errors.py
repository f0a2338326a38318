"""Exception hierarchy for the :mod:`repro.smt` solver stack."""


class SmtError(Exception):
    """Base class for all solver-related errors."""


class SortError(SmtError):
    """A term was used where a different sort (Bool/Real) was expected."""


class NonLinearError(SmtError):
    """An arithmetic term could not be normalized to a linear expression.

    The solver implements QF-LRA only; products of two non-constant terms
    must be linearized by the caller (e.g. with the case split over a
    finite coefficient domain described in the CCmatic paper, as
    :meth:`repro.core.generator_smt.SmtGenerator._rule_term` does).
    """


class UnknownResultError(SmtError):
    """A model or core was requested but the last check did not produce one."""
