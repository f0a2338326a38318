"""The exact ``Fraction`` replay of a candidate on a counterexample: the
reference the integer pruning kernel
(:meth:`repro.ccac.environments.EnvironmentSpec.replay_mask`) is tested
against.  One candidate, one trace, scalar rational arithmetic, no
shared code with the kernel beyond the trace and candidate fields."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from repro.cegis import PruningMode


def replay_cwnd(candidate, trace, cfg) -> list[Fraction]:
    """The candidate's clamped cwnd trajectory on a trace's ack
    observations: the trace supplies the pre-history cwnds, the rule
    fills ``t >= 0``."""
    if hasattr(candidate, "threshold"):
        cwnd: list[Fraction] = []
        for t in range(cfg.T + 1):
            prev_cwnd = cwnd[t - 1] if t >= 1 else trace.cwnd_at(t - 1)
            cwnd.append(
                candidate.next_cwnd(
                    prev_cwnd,
                    trace.ack_at(t - 1),
                    trace.ack_at(t - 2),
                    trace.ack_at(t - 3),
                    cfg.cwnd_min,
                )
            )
        return cwnd
    cwnd = []
    for t in range(cfg.T + 1):
        total = Fraction(candidate.gamma)
        for i in range(1, candidate.history + 1):
            back = t - i
            if candidate.alphas[i - 1] != 0:
                hist = cwnd[back] if back >= 0 else trace.cwnd_at(back)
                total += candidate.alphas[i - 1] * hist
            if candidate.betas[i - 1] != 0:
                total += candidate.betas[i - 1] * trace.ack_at(back)
        cwnd.append(max(total, cfg.cwnd_min))
    return cwnd


def simulate_on_trace(candidate, trace, cfg) -> tuple[list[Fraction], list[Fraction]]:
    """Candidate's (cwnd, A) trajectories on a trace's observations."""
    cwnd = replay_cwnd(candidate, trace, cfg)
    A: list[Fraction] = [trace.A[0]]
    for t in range(1, cfg.T + 1):
        A.append(max(A[t - 1], trace.S[t - 1] + cwnd[t]))
    return cwnd, A


def lossless_satisfies(candidate, trace, pruning: PruningMode) -> bool:
    """``feasible => desired`` on a lossless-family trace."""
    cfg = trace.cfg
    cwnd, A = simulate_on_trace(candidate, trace, cfg)
    T = cfg.T

    feasible = trace.A[0] <= trace.S_pre[0] + cwnd[0]
    if feasible:
        if pruning is PruningMode.EXACT:
            feasible = all(A[t] == trace.A[t] for t in range(1, T + 1))
        else:
            for t, bound in enumerate(trace.range_bounds()):
                if t == 0:
                    continue
                if A[t] < bound.lower or (bound.upper is not None and A[t] > bound.upper):
                    feasible = False
                    break
    if not feasible:
        return True

    util_ok = trace.S[T] - trace.S[0] >= cfg.util_thresh * cfg.C * cfg.T
    limit = cfg.delay_thresh * cfg.C * cfg.D
    queue_ok = all(A[t] - trace.S[t] <= limit for t in range(T + 1))
    increased = cwnd[T] > cwnd[0]
    decreased = cwnd[T] < cwnd[0]
    return (util_ok or increased) and (queue_ok or decreased)


def replays_exactly(trace, cwnd, window_base) -> bool:
    """Exact replay of the eager sender: the candidate's initial window
    admits the recorded initial queue, and sending up to
    ``window_base(t) + cwnd[t]`` at each step ``t >= 1`` reproduces the
    recorded arrivals step for step."""
    if trace.S_pre and trace.A[0] > trace.S_pre[0] + cwnd[0]:
        return False
    sent = trace.A[0]
    for t in range(1, trace.cfg.T + 1):
        sent = max(sent, window_base(t) + cwnd[t])
        if sent != trace.A[t]:
            return False
    return True


def lossy_satisfies(candidate, trace) -> bool:
    cwnd = replay_cwnd(candidate, trace, trace.cfg)
    if not replays_exactly(trace, cwnd, lambda t: trace.S[t - 1] + trace.L[t - 1]):
        return True
    return replace(trace, cwnd=tuple(cwnd)).desired_holds()


def multiflow_satisfies(candidate, trace) -> bool:
    replayed = []
    for flow in trace.flows:
        cwnd = replay_cwnd(candidate, flow, trace.cfg)
        if not replays_exactly(flow, cwnd, lambda t, f=flow: f.S[t - 1]):
            return True
        replayed.append(replace(flow, cwnd=tuple(cwnd)))
    return replace(trace, flows=tuple(replayed)).desired_holds()


def oracle_satisfies(candidate, trace, pruning: PruningMode) -> bool:
    """The scalar replay under the trace's origin environment kind:
    lossy and two-flow traces prune by exact replay in either mode."""
    kind = trace.environment.kind
    if kind == "lossy":
        return lossy_satisfies(candidate, trace)
    if kind == "multiflow":
        return multiflow_satisfies(candidate, trace)
    return lossless_satisfies(candidate, trace, pruning)
