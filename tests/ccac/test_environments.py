"""The environment matrix: registry identity, codecs, portfolio verdicts."""

from fractions import Fraction

import pytest

from repro.ccac import (
    ENVIRONMENT_VERSION,
    EnvironmentSpec,
    ModelConfig,
    default_environments,
    environment,
    environment_from_json,
    lossless_environment,
    lossy_environment,
    multiflow_environment,
    parse_environment,
    registered_kinds,
)
from repro.cegis import PruningMode
from repro.core import (
    CcacVerifier,
    EnumerativeGenerator,
    SmtGenerator,
    SynthesisQuery,
    constant_cwnd,
    rocc,
    table1_spaces,
)
from repro.runtime.serialize import (
    decode_environments,
    decode_trace,
    encode_environments,
    encode_trace,
    query_fingerprint,
)


@pytest.fixture
def cfg():
    return ModelConfig(T=5, history=3)


class TestRegistry:
    def test_all_matrix_kinds_registered(self):
        assert {"lossless", "lossy", "multiflow", "jitter", "thresholds"} \
            <= set(registered_kinds())

    def test_defaults_fill_in_canonically(self):
        env = lossy_environment(buffer=2)
        assert env.param("loss_thresh") == Fraction(1)
        assert env.key() == "lossy:buffer=2,loss_thresh=1"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown environment kind"):
            environment("wormhole")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="does not take parameter"):
            environment("lossless", buffer=2)

    def test_missing_required_parameter_rejected(self):
        with pytest.raises(ValueError, match="requires parameter"):
            environment("lossy")

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError, match="buffer must be positive"):
            lossy_environment(buffer=0)
        with pytest.raises(ValueError):
            multiflow_environment(min_share=Fraction(3, 2))

    def test_param_order_is_canonical(self):
        a = environment("lossy", buffer=2, loss_thresh=1)
        b = environment("lossy", loss_thresh=1, buffer=2)
        assert a == b and hash(a) == hash(b) and a.key() == b.key()


class TestCodecs:
    def test_parse_round_trips_through_key(self):
        env = parse_environment("lossy:buffer=13/7")
        assert env.param("buffer") == Fraction(13, 7)
        assert parse_environment(env.key()) == env
        assert parse_environment("lossless") == lossless_environment()

    def test_parse_rejects_malformed_params(self):
        with pytest.raises(ValueError, match="expected key=value"):
            parse_environment("lossy:buffer")
        with pytest.raises(ValueError, match="non-rational"):
            parse_environment("lossy:buffer=huge")

    def test_json_round_trip_is_exact(self):
        env = multiflow_environment(min_share=Fraction(1, 3),
                                    phi=Fraction(2, 7))
        again = environment_from_json(env.to_json())
        assert again == env
        assert again.param("min_share") == Fraction(1, 3)

    def test_json_version_gated(self):
        wire = lossless_environment().to_json()
        wire["version"] = ENVIRONMENT_VERSION + 1
        with pytest.raises(ValueError, match="unsupported environment version"):
            EnvironmentSpec.from_json(wire)

    def test_encode_environments_canonicalizes_none(self):
        # None and [lossless] must serialize identically — the paper's
        # lossless fragment is one identity, not two — and decode to the
        # one tuple form every query holds
        assert encode_environments(None) == \
            encode_environments([lossless_environment()])
        assert decode_environments(encode_environments(None)) == \
            default_environments()
        assert decode_environments(None) == default_environments()
        multi = [lossless_environment(), lossy_environment(buffer=8)]
        assert decode_environments(encode_environments(multi)) == tuple(multi)


class TestQueryFingerprints:
    def _query(self, environments):
        return SynthesisQuery(
            spec=table1_spaces()["no_cwnd_small"],
            cfg=ModelConfig(T=5),
            environments=environments,
        )

    def test_none_equals_explicit_lossless(self):
        assert query_fingerprint(self._query(None)) == \
            query_fingerprint(self._query([lossless_environment()]))

    def test_environments_are_identity(self):
        assert query_fingerprint(self._query(None)) != \
            query_fingerprint(
                self._query([lossless_environment(),
                             lossy_environment(buffer=2)])
            )


class TestPortfolioVerdicts:
    def test_rocc_verified_across_adequate_matrix(self, cfg):
        envs = [lossless_environment(), lossy_environment(buffer=8)]
        verifier = CcacVerifier(cfg, environments=envs)
        assert verifier.verify(rocc(cfg.history))

    def test_none_and_lossless_verdicts_agree(self, cfg):
        candidate = rocc(cfg.history)
        implicit = CcacVerifier(cfg).verify(candidate)
        explicit = CcacVerifier(
            cfg, environments=[lossless_environment()]
        ).verify(candidate)
        assert implicit == explicit is True

    def test_default_and_explicit_lossless_are_one_result(self, cfg):
        candidate = constant_cwnd(1, cfg.history)
        implicit = CcacVerifier(cfg).find_counterexample(candidate)
        explicit = CcacVerifier(
            cfg, environments=[lossless_environment()]
        ).find_counterexample(candidate)
        assert implicit.environment == explicit.environment \
            == lossless_environment()
        wire = encode_trace(explicit.counterexample)
        assert wire == encode_trace(implicit.counterexample)
        # lossless is the trace format's unmarked case
        assert "env" not in wire and "kind" not in wire

    def test_tiny_buffer_counterexample_tagged_with_origin(self, cfg):
        envs = [lossless_environment(), lossy_environment(buffer=1)]
        res = CcacVerifier(cfg, environments=envs).find_counterexample(
            rocc(cfg.history)
        )
        assert not res.verified
        assert res.environment is not None
        assert res.environment.kind == "lossy"
        assert res.counterexample.environment == res.environment

    def test_tagged_counterexample_round_trips(self, cfg):
        env = lossy_environment(buffer=1)
        res = CcacVerifier(cfg, environments=[env]).find_counterexample(
            rocc(cfg.history)
        )
        cex = res.counterexample
        wire = encode_trace(cex)
        assert wire["kind"] == "lossy"
        again = decode_trace(wire, cfg)
        assert again == cex
        assert again.environment == env


class TestDefaults:
    def test_default_environments_is_the_paper_fragment(self):
        assert default_environments() == (lossless_environment(),)


class TestPruningByOrigin:
    """Generators prune each counterexample under its origin
    environment; a lossless trace written without an ``env`` key (the
    format before every trace carried one) still prunes as lossless."""

    @staticmethod
    def _smt_survivors(spec, cfg, pruning, trace):
        gen = SmtGenerator(spec, cfg, pruning)
        gen.add_counterexample(trace)
        keys = set()
        while (cand := gen.propose()) is not None:
            keys.add(cand.key())
            gen.block(cand)
        return keys

    @pytest.mark.parametrize("env", [
        lossy_environment(buffer=1),
        multiflow_environment(min_share=Fraction(0), phi=Fraction(1, 2)),
    ], ids=lambda env: env.kind)
    def test_tagged_trace_prunes_alike_in_both_generators(self, cfg, env):
        """Both generators prune a lossy or two-flow counterexample by
        exact replay under its own environment, to the same survivors."""
        spec = table1_spaces(cfg.history)["no_cwnd_small"]
        res = CcacVerifier(cfg, environments=[env]).find_counterexample(
            rocc(cfg.history)
        )
        trace = res.counterexample
        assert trace.environment == env
        enum = EnumerativeGenerator(spec, cfg)
        enum.add_counterexample(trace)
        survivors = {c.key() for c in enum.propose_batch(enum.survivor_count)}
        assert rocc(cfg.history).key() not in survivors
        assert survivors == self._smt_survivors(
            spec, cfg, PruningMode.RANGE, trace
        )

    @pytest.mark.parametrize("pruning", list(PruningMode))
    def test_untagged_lossless_trace_prunes_alike(self, cfg, pruning):
        spec = table1_spaces(cfg.history)["no_cwnd_small"]
        res = CcacVerifier(cfg).find_counterexample(
            constant_cwnd(1, cfg.history)
        )
        wire = encode_trace(res.counterexample)
        assert "env" not in wire
        trace = decode_trace(wire, cfg)
        assert trace.environment == lossless_environment()
        assert trace == res.counterexample

        enum = EnumerativeGenerator(spec, cfg, pruning)
        enum.add_counterexample(trace)
        survivors = {c.key() for c in enum.propose_batch(enum.survivor_count)}
        assert 0 < len(survivors) < spec.search_space_size
        assert survivors == self._smt_survivors(spec, cfg, pruning, trace)
        assert survivors == self._smt_survivors(
            spec, cfg, pruning, res.counterexample
        )
