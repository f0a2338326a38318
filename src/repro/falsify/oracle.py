"""The falsifier's property oracle: the paper's desired property on
concrete simulated traces.

The SMT verifier proves the *relaxed* steady-state property over every
admissible window of ``T`` timesteps (paper §3.1.1):

    (high utilization OR cwnd increased) AND (queue bounded OR cwnd decreased)

The oracle evaluates exactly that, windowed, on a simulator run: slide a
``T``-tick window over the trace and check each window whose starting
state lies inside the model's adversarial box (initial queue and history
cwnds within the configured bounds — windows outside the box are not
covered by the SMT proof and must not raise disagreements).  Everything
is exact ``Fraction`` arithmetic, so verdicts and margins are
bit-reproducible and a corpus case can assert them with ``==``.

Fitness for the genetic search is **margin-to-violation**: the smallest
window margin, where a window's margin is

    min( max(util_margin, cwnd_inc_margin),
         max(queue_margin, cwnd_dec_margin) )

normalized so the components are comparable.  A margin below zero is a
violation; the search evolves schedules toward the minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..ccac.environments import EnvironmentSpec, lossless_environment
from .schedule import TraceSchedule, run_schedule

__all__ = ["PropertyOracle", "TraceVerdict", "WindowReport"]


@dataclass(frozen=True)
class WindowReport:
    """The relaxed property evaluated on one window."""

    start: int
    holds: bool
    covered: bool            # starting state inside the model's box
    margin: Fraction         # < 0 iff the property is violated
    util: Fraction           # delivered / available over the window
    max_queue: Fraction


@dataclass(frozen=True)
class TraceVerdict:
    """Oracle verdict on one whole simulated trace."""

    violated: bool
    #: min margin over *eligible* windows (the fitness the search
    #: minimizes); < 0 iff ``violated``
    margin: Fraction
    #: first violating window, if any
    witness: Optional[WindowReport]
    windows: int
    covered_windows: int

    def describe(self) -> str:
        if not self.violated:
            return f"holds (margin {float(self.margin):+.3f})"
        w = self.witness
        return (
            f"VIOLATED at window t={w.start} "
            f"(util={float(w.util):.3f}, max_queue={float(w.max_queue):.3f}, "
            f"margin {float(w.margin):+.3f})"
        )


class PropertyOracle:
    """Windowed relaxed-property check derived from a
    :class:`repro.ccac.ModelConfig`.

    Verdicts contradict the ``environment`` cell of the CCAC matrix (an
    :class:`~repro.ccac.EnvironmentSpec`; default lossless).  The
    simulator itself never drops — so only environments whose model
    admits the simulated trace as-is can be judged: config-override
    kinds (``jitter``/``thresholds``) fold into ``cfg``, and a ``lossy``
    cell narrows coverage to windows whose queue never reaches the
    buffer.  Soundness of the lossy narrowing:
    a zero-loss trace whose queue stays at or below the buffer satisfies
    every finite-buffer constraint with ``L ≡ 0`` (drops are only
    *forced* at a full buffer), and with ``L ≡ 0`` the lossy desired
    property's loss-budget leg holds trivially — so a base-property
    violation on such a window refutes a lossy "verified" verdict
    exactly as it refutes a lossless one.  Multiflow cells are rejected:
    the simulator is single-flow.
    """

    def __init__(
        self, cfg, covered_only: bool = True,
        environment: EnvironmentSpec = lossless_environment(),
    ):
        if environment.kind == "multiflow":
            raise ValueError(
                "the single-flow simulator cannot judge multiflow "
                "environments"
            )
        self.environment = environment
        self._buffer = (
            environment.param("buffer") if environment.kind == "lossy" else None
        )
        cfg = environment.model_config(cfg)
        self.cfg = cfg
        #: only count windows the SMT proof covers (the in-fragment
        #: disagreement rule); ``False`` widens to every window — used
        #: for beyond-fragment robustness findings where there is no
        #: proof to contradict
        self.covered_only = covered_only
        self.queue_limit = cfg.delay_thresh * cfg.C * cfg.D
        # normalizers keeping the three margin species comparable
        self._norm_queue = max(self.queue_limit, Fraction(1))
        self._norm_cwnd = max(cfg.bdp, Fraction(1))

    # -- single window --------------------------------------------------------

    def window(self, result, start: int) -> WindowReport:
        """Evaluate the relaxed property on ``[start, start + T]``."""
        cfg = self.cfg
        end = start + cfg.T
        delivered = result.S[end] - result.S[start]
        if result.cap_cum:
            available = result.cap_cum[end] - result.cap_cum[start]
        else:
            available = cfg.C * cfg.T
        target = cfg.util_thresh * available
        util = delivered / available if available else Fraction(0)
        util_ok = delivered >= target
        util_margin = (delivered - target) / max(target, Fraction(1))

        queue = [result.A[t] - result.S[t] for t in range(start, end + 1)]
        max_queue = max(queue)
        queue_ok = max_queue <= self.queue_limit
        queue_margin = (self.queue_limit - max_queue) / self._norm_queue

        dc = result.cwnd[end] - result.cwnd[start]
        inc, dec = dc > 0, dc < 0
        inc_margin = dc / self._norm_cwnd
        dec_margin = -dc / self._norm_cwnd

        holds = (util_ok or inc) and (queue_ok or dec)
        margin = min(
            max(util_margin, inc_margin), max(queue_margin, dec_margin)
        )
        return WindowReport(
            start=start,
            holds=holds,
            covered=self._covered(result, start),
            margin=margin,
            util=util,
            max_queue=max_queue,
        )

    def _covered(self, result, start: int) -> bool:
        """Whether the SMT proof covers the window starting at ``start``.

        The proof quantifies over every model-admissible trace, so a sim
        window is covered exactly when the time-shifted trace (counters
        re-zeroed at ``start``) satisfies the model's constraints:

        * ``start >= history`` — the model's pre-history must correspond
          to *actual* sim values (the template reads them), so the first
          ``history`` ticks, where the sim CCA runs on its boot state,
          are out;
        * initial queue inside the box, and the outstanding data must
          fit the initial window (``A_0 <= S_{-1} + cwnd_0``);
        * no banked tokens at ``start`` — the shifted trace must obey a
          *fresh* token bucket (``S + W == cumulative capacity``), else
          the window could burst tokens the model never grants;
        * pre-history cwnds inside the sanity box and pre-history ack
          rate at most ``C`` (the model's ``S_pre >= -C*i`` bound).

        With all of these, the shifted window *is* a model trace (the
        eager-sender and template equalities transfer identically), so
        a violation on it refutes an SMT "verified" verdict.
        """
        cfg = self.cfg
        h = cfg.history
        if start < h:
            return False
        if self._buffer is not None:
            # lossy cell: the shifted trace is admissible with L ≡ 0
            # only while the queue stays within the drop-tail buffer —
            # beyond it the model *forces* drops the sim never took
            for t in range(start, start + cfg.T + 1):
                if result.A[t] - result.S[t] > self._buffer:
                    return False
        if result.A[start] - result.S[start] > cfg.initial_queue_max:
            return False
        if result.A[start] > result.S[start - 1] + result.cwnd[start]:
            return False
        cap = result.cap_cum[start] if result.cap_cum else cfg.C * start
        if result.S[start] + result.W[start] != cap:
            return False
        for i in range(1, h + 1):
            w = result.cwnd[start - i]
            if w < cfg.cwnd_min or w > cfg.initial_cwnd_max:
                return False
            if result.S[start] - result.S[start - i] > cfg.C * i:
                return False
        return True

    # -- whole trace ----------------------------------------------------------

    def evaluate_result(self, result) -> TraceVerdict:
        cfg = self.cfg
        windows = 0
        covered = 0
        margin: Optional[Fraction] = None      # over eligible windows
        margin_all: Optional[Fraction] = None  # fallback: every window
        witness: Optional[WindowReport] = None
        for start in range(0, result.ticks - cfg.T + 1):
            rep = self.window(result, start)
            windows += 1
            if rep.covered:
                covered += 1
            eligible = rep.covered or not self.covered_only
            if margin_all is None or rep.margin < margin_all:
                margin_all = rep.margin
            if eligible and (margin is None or rep.margin < margin):
                margin = rep.margin
            if eligible and not rep.holds and witness is None:
                witness = rep
        if margin is None:
            # no eligible window at all (trace shorter than T, or every
            # window left the model box): fall back so fitness still
            # orders individuals
            margin = margin_all if margin_all is not None else Fraction(1)
        return TraceVerdict(
            violated=witness is not None,
            margin=margin,
            witness=witness,
            windows=windows,
            covered_windows=covered,
        )

    def evaluate(self, cca, schedule: TraceSchedule) -> TraceVerdict:
        """Run ``cca`` on ``schedule`` and judge the trace."""
        return self.evaluate_result(run_schedule(cca, schedule))
