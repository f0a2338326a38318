"""The redesigned public API: CheckOptions, deprecation shims, __all__,
and the result-enum truthiness guards."""

import dataclasses
import warnings

import pytest

from repro.smt import CheckOptions, Real, Solver, sat, unknown, unsat

pytestmark = pytest.mark.engine


# -- CheckOptions -------------------------------------------------------------


def test_check_options_is_frozen():
    opts = CheckOptions(max_conflicts=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.max_conflicts = 10


def test_check_takes_options_object():
    x = Real("api_x")
    s = Solver()
    s.add(x >= 0, x <= 1)
    assert s.check(CheckOptions()) is sat
    s.add(x >= 2)
    assert s.check(CheckOptions(max_conflicts=10_000)) is unsat


def test_legacy_kwargs_removed():
    """The 1.x keyword shims are gone in 2.0: plain TypeError, no
    half-working deprecation path."""
    x = Real("api_y")
    s = Solver()
    s.add(x >= 0)
    with pytest.raises(TypeError):
        s.check(max_conflicts=10_000)
    with pytest.raises(TypeError):
        s.check(deadline=None)


def test_legacy_positional_int_removed():
    x = Real("api_z")
    s = Solver()
    s.add(x >= 0)
    with pytest.raises(TypeError, match="CheckOptions"):
        s.check(10_000)


def test_session_rejects_legacy_forms():
    """A cache-backed solver (the incremental entry point) rejects the
    1.x forms before it consults the cache."""
    from repro.engine import QueryCache

    session = Solver(cache=QueryCache())
    with pytest.raises(TypeError, match="CheckOptions"):
        session.check(5_000)
    with pytest.raises(TypeError):
        session.check(max_conflicts=5)


def test_options_object_does_not_warn():
    x = Real("api_w")
    s = Solver()
    s.add(x >= 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert s.check(CheckOptions(max_conflicts=10_000)) is sat


def test_with_deadline_helper():
    opts = CheckOptions(max_conflicts=7)
    bounded = opts.with_deadline(123.0)
    assert bounded.deadline == 123.0
    assert bounded.max_conflicts == 7
    assert opts.deadline is None  # original untouched


# -- truthiness guards --------------------------------------------------------


def test_optimize_result_truthiness_is_an_error():
    from repro.smt.optimize import maximize

    x = Real("tg_x")
    s = Solver()
    s.add(x >= 0, x <= 4)
    result = maximize(s, x)
    assert result.feasible
    with pytest.raises(TypeError):
        bool(result)
    with pytest.raises(TypeError):
        if result:  # pragma: no cover - the guard raises first
            pass


# -- the stable top-level surface ---------------------------------------------


def test_top_level_all_resolves():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_top_level_names_are_canonical():
    import repro
    from repro.cegis import CegisLoop
    from repro.core.synthesizer import synthesize
    from repro.smt import Solver as SmtSolver

    assert repro.CegisLoop is CegisLoop
    assert repro.synthesize is synthesize
    assert repro.Solver is SmtSolver


def test_top_level_verify(fast_cfg):
    import repro
    from repro.core import constant_cwnd, rocc

    assert repro.verify(rocc(3), fast_cfg).verified
    refuted = repro.verify(constant_cwnd(1, 3), fast_cfg)
    assert not refuted.verified
    assert refuted.counterexample is not None


def test_migrated_callers_emit_no_deprecation_warnings(fast_cfg):
    """The in-repo call sites all use CheckOptions now; a full verifier
    call (including the worst-case binary search through maximize) must
    not trip the legacy shims."""
    from repro.core import constant_cwnd
    from repro.core.verifier import CcacVerifier

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        CcacVerifier(fast_cfg).find_counterexample(
            constant_cwnd(1, 3), worst_case=True
        )


def test_session_is_exported_from_smt():
    """One solver object: ``Solver`` (with ``scope``) and the cache
    protocol it takes are exported, and no second session or stats type
    is."""
    import repro.smt
    from repro.smt import QueryCacheProtocol, Solver  # noqa: F401
    from repro.smt.terms import canonical_hash, canonical_key  # noqa: F401

    assert callable(Solver.scope)
    for gone in ("SolverSession", "SessionStats", "SolverStats"):
        assert not hasattr(repro.smt, gone), gone
