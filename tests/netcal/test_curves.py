"""Network-calculus view of the simulated link: every trace of the
operational jittery link sits inside the waste-adjusted service envelope
``C*(t-j) - W[t-j] <= S[t] <= C*t - W[t]`` that ``JitteryLink.validate``
checks."""

from fractions import Fraction

from repro.sim import JitteryLink


class TestModelConnection:
    def test_service_envelope_brackets_simulated_link(self):
        """Every simulated link trace sits inside the waste-adjusted
        network-calculus envelope."""
        for policy in ("ideal", "lazy", "max_waste"):
            link = JitteryLink(policy=policy)
            A = Fraction(0)
            for i in range(25):
                A += Fraction(1, 2) if i % 3 else Fraction(2)
                link.step(A)
            assert link.validate() == []
