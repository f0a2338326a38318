"""The job API: JSON round-trips, fingerprints, version gating."""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from repro.ccac import ModelConfig
from repro.core import SynthesisQuery, table1_spaces
from repro.runtime import RuntimeOptions
from repro.runtime.serialize import (
    decode_config,
    decode_query,
    encode_query,
    query_fingerprint,
)
from repro.service import (
    JOBSPEC_VERSION,
    JobRecord,
    JobSpec,
    JobSpecError,
    decode_synthesis_result,
    execute_job,
    falsify_spec,
    synthesis_spec,
    verify_spec,
)
from repro.service.jobs import _OPTION_FIELDS, _decode_options, _encode_options

pytestmark = pytest.mark.service


def _exact_cfg() -> ModelConfig:
    # thresholds that do not survive a float round-trip
    return ModelConfig(
        T=5, util_thresh=Fraction(1, 3), delay_thresh=Fraction(13, 7)
    )


class TestJobSpec:
    def test_roundtrip_preserves_exact_fractions(self):
        spec = verify_spec("rocc", _exact_cfg(), worst_case=True)
        wire = json.loads(json.dumps(spec.to_json()))
        back = JobSpec.from_json(wire)
        assert back == spec
        cfg = decode_config(back.params["cfg"])
        assert cfg.util_thresh == Fraction(1, 3)
        assert cfg.delay_thresh == Fraction(13, 7)

    def test_options_roundtrip_exact(self):
        options = RuntimeOptions(
            isolate=True,
            solver_timeout=12.5,
            falsify=250,
            certify=True,
        )
        back = _decode_options(json.loads(json.dumps(_encode_options(options))))
        assert back.isolate is True
        assert back.solver_timeout == 12.5
        assert back.falsify == 250
        assert back.certify is True

    def test_checkpoint_path_is_not_part_of_a_spec(self):
        options = RuntimeOptions(checkpoint_path="/tmp/run.ckpt")
        query = SynthesisQuery(
            spec=table1_spaces()["no_cwnd_small"], cfg=ModelConfig(T=5)
        )
        spec = synthesis_spec(query, options)
        assert "checkpoint" not in json.dumps(spec.to_json())

    def test_fingerprint_ignores_dict_ordering(self):
        spec = falsify_spec("aimd:8", _exact_cfg(), budget=100, seed=7)
        wire = spec.to_json()
        scrambled = json.loads(
            json.dumps(wire, sort_keys=True)
        )
        scrambled["params"] = dict(reversed(list(scrambled["params"].items())))
        assert JobSpec.from_json(scrambled).fingerprint() == spec.fingerprint()

    def test_fingerprint_stable_across_processes(self):
        spec = verify_spec("rocc", _exact_cfg(), worst_case=True, falsify=50)
        code = (
            "from fractions import Fraction\n"
            "from repro.ccac import ModelConfig\n"
            "from repro.service import verify_spec\n"
            "cfg = ModelConfig(T=5, util_thresh=Fraction(1, 3),"
            " delay_thresh=Fraction(13, 7))\n"
            "print(verify_spec('rocc', cfg, worst_case=True,"
            " falsify=50).fingerprint())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env=dict(os.environ),
        )
        assert out.stdout.strip() == spec.fingerprint()

    def test_different_specs_different_fingerprints(self):
        cfg = _exact_cfg()
        assert verify_spec("rocc", cfg).fingerprint() != \
            verify_spec("eq3", cfg).fingerprint()

    def test_unsupported_version_rejected_with_clear_error(self):
        wire = verify_spec("rocc", ModelConfig(T=5)).to_json()
        wire["version"] = JOBSPEC_VERSION + 1
        with pytest.raises(JobSpecError, match="unsupported JobSpec version"):
            JobSpec.from_json(wire)

    def test_non_object_rejected(self):
        with pytest.raises(JobSpecError):
            JobSpec.from_json([1, 2, 3])
        with pytest.raises(JobSpecError):
            JobSpec.from_json({"version": JOBSPEC_VERSION, "kind": "verify",
                               "params": "nope"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(JobSpecError, match="unknown job kind"):
            JobSpec(kind="frobnicate", params={})


class TestCodecCoverage:
    """The job codec carries every field of a run description, so none
    can be dropped between ``ccmatic synthesize`` and the run."""

    #: RuntimeOptions fields that belong to the executor, not the spec
    EXECUTOR_ONLY = {"checkpoint_path", "worker_pool"}

    def test_every_query_field_survives_the_codec(self):
        from repro.ccac import lossy_environment
        from repro.cegis import PruningMode

        query = SynthesisQuery(
            spec=table1_spaces()["cwnd_small"],
            cfg=_exact_cfg(),
            pruning=PruningMode.EXACT,
            worst_case_cex=False,
            generator="smt",
            find_all=True,
            max_iterations=7,
            time_budget=9.5,
            jobs=3,
            environments=(lossy_environment(buffer=2),),
        )
        encoded = json.loads(json.dumps(encode_query(query)))
        names = {f.name for f in dataclasses.fields(SynthesisQuery)}
        assert set(encoded) == names
        back = decode_query(encoded)
        for name in names:
            assert getattr(back, name) == getattr(query, name), name

    def test_every_runtime_option_is_encoded_or_executor_only(self):
        names = {f.name for f in dataclasses.fields(RuntimeOptions)}
        assert set(_OPTION_FIELDS).isdisjoint(self.EXECUTOR_ONLY)
        assert names == set(_OPTION_FIELDS) | self.EXECUTOR_ONLY


#: a synthesize JobSpec for the Table 1 3^4 row under range pruning
#: (enum, h=3, T=5), as builds that still had ``max_solutions`` and
#: ``retries`` wrote it
_OLDER_BUILDS_SPEC = {
    "version": 2, "kind": "synthesize", "params": {
        "query": {
            "spec": {"history": 3, "use_cwnd_history": False,
                     "coeff_domain": ["-1", "0", "1"], "const_domain": None},
            "cfg": {"T": 5, "D": 1, "jitter": 1, "history": 3, "C": "1",
                    "util_thresh": "1/2", "delay_thresh": "4",
                    "initial_queue_max": "8", "initial_cwnd_max": "8",
                    "cwnd_min": "1/10"},
            "pruning": "range", "worst_case_cex": False, "generator": "enum",
            "find_all": False, "max_iterations": 100000,
            "max_solutions": None, "time_budget": 120.0, "jobs": 1,
            "environments": [{"kind": "lossless", "params": {}, "version": 1}],
        },
        "options": {"isolate": False, "solver_timeout": 60.0,
                    "solver_mem_mb": None, "retries": 1, "cross_check": False,
                    "falsify": 0, "falsify_seed": 0, "cache_dir": None,
                    "certify": False},
    },
}

#: the result-payload fingerprint of that spec, with and without
#: worst-case counterexamples (both runs take 10 iterations to the same
#: solution)
_T1_PAYLOAD_FINGERPRINT = (
    "8b36efd07be2e47f74c539059be762ec33c3d21b974ddcea5fa6f16a83162f3c"
)


class TestOlderBuilds:
    """Run descriptions written before ``max_solutions``, ``verbose`` and
    ``retries`` were removed still decode, run and fingerprint alike."""

    def _t1_query(self, worst_case: bool) -> SynthesisQuery:
        return SynthesisQuery(
            spec=table1_spaces(3)["no_cwnd_small"],
            cfg=ModelConfig(T=5, history=3),
            generator="enum",
            worst_case_cex=worst_case,
            time_budget=120,
        )

    def test_query_fingerprints_unchanged(self):
        assert query_fingerprint(self._t1_query(False)) == (
            "7046c3d8de60efc97e6728760eea88ee2a93763d845bce10bfb05a41f0ac4110"
        )
        assert query_fingerprint(self._t1_query(True)) == (
            "15049ab75792a2b4c3472258a4422ccd4914606e9405f855496722184b3e0386"
        )

    def test_older_spec_runs_to_the_same_payload(self):
        spec = JobSpec.from_json(_OLDER_BUILDS_SPEC)
        assert decode_query(spec.params["query"]) == self._t1_query(False)
        payload = execute_job(spec)
        assert payload["fingerprint"] == _T1_PAYLOAD_FINGERPRINT
        # derived flags are still written, from the stop reason
        assert payload["stop_reason"] == "solution"
        assert payload["exhausted"] is False and payload["timed_out"] is False

    def test_worst_case_payload_unchanged(self):
        payload = execute_job(synthesis_spec(self._t1_query(True)))
        assert payload["fingerprint"] == _T1_PAYLOAD_FINGERPRINT


class TestEnvironmentJobs:
    """v2 of the wire format: jobs carry their environment matrix."""

    def test_default_matches_explicit_lossless(self):
        from repro.ccac import lossless_environment

        cfg = _exact_cfg()
        implicit = verify_spec("rocc", cfg)
        explicit = verify_spec(
            "rocc", cfg, environments=[lossless_environment()]
        )
        assert implicit.fingerprint() == explicit.fingerprint()

    def test_environment_fingerprint_stable_across_processes(self):
        from repro.ccac import lossless_environment, lossy_environment

        envs = [lossless_environment(),
                lossy_environment(buffer=Fraction(13, 7))]
        spec = verify_spec("rocc", _exact_cfg(), environments=envs)
        code = (
            "from fractions import Fraction\n"
            "from repro.ccac import ModelConfig, lossless_environment,"
            " lossy_environment\n"
            "from repro.service import verify_spec\n"
            "cfg = ModelConfig(T=5, util_thresh=Fraction(1, 3),"
            " delay_thresh=Fraction(13, 7))\n"
            "envs = [lossless_environment(),"
            " lossy_environment(buffer=Fraction(13, 7))]\n"
            "print(verify_spec('rocc', cfg, environments=envs)"
            ".fingerprint())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env=dict(os.environ),
        )
        assert out.stdout.strip() == spec.fingerprint()

    def test_v2_specs_round_trip_environments(self):
        from repro.ccac import lossy_environment
        from repro.runtime.serialize import decode_environments

        envs = [lossy_environment(buffer=2)]
        spec = verify_spec("rocc", ModelConfig(T=5), environments=envs)
        again = JobSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert decode_environments(again.params["environments"]) == tuple(envs)

    def test_verify_job_reports_origin_environment(self):
        from repro.ccac import lossy_environment

        spec = verify_spec("rocc", ModelConfig(T=5),
                           environments=[lossy_environment(buffer=1)])
        payload = execute_job(spec)
        assert payload["verified"] is False
        assert payload["environment"] == "lossy:buffer=1,loss_thresh=1"
        assert payload["counterexample"]["kind"] == "lossy"


class TestResultPayload:
    @pytest.fixture(scope="class")
    def tiny_payload(self):
        query = SynthesisQuery(
            spec=table1_spaces()["no_cwnd_small"],
            cfg=ModelConfig(T=5),
            generator="enum",
            worst_case_cex=False,
        )
        return execute_job(synthesis_spec(query))

    def test_decode_rebuilds_result(self, tiny_payload):
        result = decode_synthesis_result(tiny_payload)
        assert result.iterations == tiny_payload["iterations"]
        assert len(result.solutions) == len(tiny_payload["solutions"])
        assert result.stop_reason is not None

    def test_payload_fingerprint_excludes_timings(self, tiny_payload):
        from repro.service.jobs import _payload_fingerprint

        warped = dict(tiny_payload)
        warped["wall_time"] = tiny_payload["wall_time"] + 1000.0
        assert _payload_fingerprint(warped) == tiny_payload["fingerprint"]

    def test_stored_spec_with_incremental_option_still_runs(
        self, tiny_payload
    ):
        """Specs stored before the verifier lost its ``incremental``
        option carry ``"incremental": true``; decoding ignores the
        unknown key and the job runs to the same answer."""
        query = SynthesisQuery(
            spec=table1_spaces()["no_cwnd_small"],
            cfg=ModelConfig(T=5),
            generator="enum",
            worst_case_cex=False,
        )
        wire = json.loads(json.dumps(synthesis_spec(query).to_json()))
        wire["params"]["options"]["incremental"] = True
        payload = execute_job(JobSpec.from_json(wire))
        assert payload["solutions"] == tiny_payload["solutions"]
        assert payload["iterations"] == tiny_payload["iterations"]

    def test_stored_spec_with_wce_precision_still_runs(self, tiny_payload):
        """Specs stored while the worst-case search bisected carry
        ``"wce_precision": "1/8"``; new specs do not, decoding ignores
        the key and the job runs to the same answer."""
        query = SynthesisQuery(
            spec=table1_spaces()["no_cwnd_small"],
            cfg=ModelConfig(T=5),
            generator="enum",
            worst_case_cex=False,
        )
        wire = json.loads(json.dumps(synthesis_spec(query).to_json()))
        assert "wce_precision" not in wire["params"]["options"]
        wire["params"]["options"]["wce_precision"] = "1/8"
        payload = execute_job(JobSpec.from_json(wire))
        assert payload["solutions"] == tiny_payload["solutions"]
        assert payload["iterations"] == tiny_payload["iterations"]

    def test_stored_spec_with_degrade_option_still_runs(self, tiny_payload):
        """Specs stored while the runtime had a ``degrade`` switch carry
        ``"degrade": false``; new specs do not, decoding ignores the key
        and the job runs to the same answer."""
        query = SynthesisQuery(
            spec=table1_spaces()["no_cwnd_small"],
            cfg=ModelConfig(T=5),
            generator="enum",
            worst_case_cex=False,
        )
        wire = json.loads(json.dumps(synthesis_spec(query).to_json()))
        assert "degrade" not in wire["params"]["options"]
        wire["params"]["options"]["degrade"] = False
        payload = execute_job(JobSpec.from_json(wire))
        assert payload["solutions"] == tiny_payload["solutions"]
        assert payload["iterations"] == tiny_payload["iterations"]

    def test_tampered_payload_refused(self, tiny_payload):
        tampered = dict(tiny_payload)
        tampered["iterations"] = tiny_payload["iterations"] + 1
        with pytest.raises(JobSpecError, match="fingerprint"):
            decode_synthesis_result(tampered)


class TestExecute:
    def test_verify_job(self):
        payload = execute_job(verify_spec("rocc", ModelConfig(T=5)))
        assert payload["verified"] is True
        assert payload["counterexample"] is None
        assert payload["pretty"]

    def test_verify_counterexample_job(self):
        payload = execute_job(verify_spec("const:1", ModelConfig(T=5)))
        assert payload["verified"] is False
        assert payload["counterexample"] is not None
        assert "utilization" in payload["counterexample_text"]

    def test_certified_verify_job_lists_one_certificate_per_environment(self):
        from repro.ccac.environments import parse_environment

        envs = (parse_environment("lossless"),
                parse_environment("jitter:jitter=1"))
        payload = execute_job(verify_spec(
            "rocc", ModelConfig(T=5), certify=True, environments=envs,
        ))
        assert payload["certified"] is True
        assert [c["environment"] for c in payload["certificates"]] == [
            "lossless", "jitter:jitter=1",
        ]
        assert all(c["steps"] > 0 for c in payload["certificates"])
        assert "certificate" not in payload

    def test_unknown_cca_is_a_job_spec_error(self):
        with pytest.raises(JobSpecError, match="unknown CCA"):
            execute_job(verify_spec("bbr", ModelConfig(T=5)))

    def test_progress_callback_sees_records(self):
        records = []
        execute_job(
            verify_spec("rocc", ModelConfig(T=5)),
            progress=records.append,
        )
        assert any(r.get("type") == "span" for r in records)


class TestJobRecord:
    def test_roundtrip(self):
        record = JobRecord(spec=verify_spec("rocc", ModelConfig(T=5)))
        record.state = "done"
        record.result = {"verified": True}
        back = JobRecord.from_json(json.loads(json.dumps(record.to_json())))
        assert back.job_id == record.job_id
        assert back.state == "done"
        assert back.result == {"verified": True}
        assert back.spec == record.spec

    def test_unknown_state_rejected(self):
        wire = JobRecord(spec=verify_spec("rocc", ModelConfig(T=5))).to_json()
        wire["state"] = "exploded"
        with pytest.raises(JobSpecError, match="unknown job state"):
            JobRecord.from_json(wire)
