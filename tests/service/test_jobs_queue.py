"""Unit tests: job-spec decoding, content identity, the SQLite queue."""

import threading

import pytest

from repro.exceptions import JobSpecError
from repro.obs import MetricsRegistry, Observer
from repro.request import MatchRequest
from repro.service import (
    JobQueue,
    STATE_DEAD,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
)

from .conftest import write_csv


@pytest.fixture()
def pair(tmp_path):
    first = write_csv(tmp_path / "a.csv", [["x", "y"]])
    second = write_csv(tmp_path / "b.csv", [["u", "v"]])
    return first, second


def spec_for(pair, **overrides):
    submission = {"log_first": str(pair[0]), "log_second": str(pair[1])}
    submission.update(overrides)
    return MatchRequest.from_json(submission)


def job_content_key(request):
    return request.content_key()


class TestValidateSpec:
    """``MatchRequest.from_json``, the one job-spec decoder."""

    def test_fills_defaults(self, pair):
        spec = spec_for(pair).to_json()
        assert spec["format"] == "auto"
        assert spec["threshold"] == 0.0
        assert spec["composite"] is False
        assert spec["fault_plan"] is None

    def test_rejects_unknown_fields(self, pair):
        with pytest.raises(JobSpecError, match="unknown job spec field"):
            MatchRequest.from_json(
                {"log_first": str(pair[0]), "log_second": str(pair[1]),
                 "treshold": 0.5}
            )

    @pytest.mark.parametrize("spec", [
        pytest.param({"site": "evaluate", "kind": "crash"}, id="crash"),
        pytest.param({"site": "evaluate", "kind": "timeout"}, id="timeout"),
        pytest.param({"site": "evaluate", "kind": "transient"}, id="transient"),
        pytest.param(
            {"site": "search.round", "kind": "interrupt", "attempts": [1]},
            id="attempts",
        ),
        pytest.param({"site": "evaluate", "kind": "interrupt"}, id="evaluate-site"),
        pytest.param({"site": "search.rnd", "kind": "interrupt"}, id="misspelt-site"),
        pytest.param({"site": "search.round", "kind": "corrupt"}, id="round-corrupt"),
        pytest.param(
            {"site": "checkpoint.write", "kind": "interrupt"},
            id="checkpoint-interrupt",
        ),
        pytest.param(
            {"site": "checkpoint.write", "kind": "corrupt"},
            id="checkpoint-corrupt",
        ),
    ])
    def test_rejects_retired_fault_kinds(self, pair, spec):
        with pytest.raises(JobSpecError, match="not a fault plan"):
            MatchRequest.from_json(
                {"log_first": str(pair[0]), "log_second": str(pair[1]),
                 "fault_plan": {"specs": [spec]}}
            )

    def test_rejects_missing_required(self):
        with pytest.raises(JobSpecError, match="missing required field"):
            MatchRequest.from_json({"log_first": "a.csv"})

    def test_rejects_wrong_types(self, pair):
        with pytest.raises(JobSpecError, match="has type"):
            MatchRequest.from_json(
                {"log_first": str(pair[0]), "log_second": str(pair[1]),
                 "threshold": "high"}
            )
        with pytest.raises(JobSpecError, match="must not be a boolean"):
            MatchRequest.from_json(
                {"log_first": str(pair[0]), "log_second": str(pair[1]),
                 "pair_budget": True}
            )

    def test_rejects_bad_choice(self, pair):
        with pytest.raises(JobSpecError, match="must be one of"):
            spec_for(pair, format="parquet")

    def test_rejects_missing_file(self, tmp_path, pair):
        with pytest.raises(JobSpecError, match="no such file"):
            MatchRequest.from_json(
                {"log_first": str(tmp_path / "nope.csv"),
                 "log_second": str(pair[1])}
            )

    def test_rejects_non_object(self):
        with pytest.raises(JobSpecError, match="JSON object"):
            MatchRequest.from_json(["a.csv", "b.csv"])

    @pytest.mark.parametrize(
        "field, value",
        [("alpha", 1.5), ("estimate", -1), ("timeout", -1.0), ("delta", -0.5)],
    )
    def test_rejects_out_of_range_knobs(self, pair, field, value):
        # Accepted specs must run: an out-of-range knob would otherwise
        # raise ValueError in the scheduler and be retried as poison.
        with pytest.raises(JobSpecError, match="invalid job spec"):
            spec_for(pair, **{field: value})


class TestContentKey:
    def test_same_content_different_path_same_key(self, tmp_path, pair):
        copy = tmp_path / "copy.csv"
        copy.write_bytes(pair[0].read_bytes())
        spec_a = spec_for(pair)
        spec_b = MatchRequest.from_json(
            {"log_first": str(copy), "log_second": str(pair[1])}
        )
        assert job_content_key(spec_a) == job_content_key(spec_b)

    def test_knobs_change_the_key(self, pair):
        assert job_content_key(spec_for(pair)) != job_content_key(
            spec_for(pair, threshold=0.5)
        )

    def test_fault_plan_does_not_change_the_key(self, pair):
        # Faults script how a run is *tested*, not what it computes; the
        # kill-and-restart path needs attempt 2 to keep attempt 1's id.
        plan = {"specs": [{"site": "search.round", "kind": "interrupt"}]}
        assert job_content_key(spec_for(pair)) == job_content_key(
            spec_for(pair, fault_plan=plan)
        )

    def test_equal_requests_share_a_key(self, pair):
        # Identity hashes resolved values, not the JSON spelling: every
        # submission here means alpha = 1.0 and threshold = 0.0.
        default = job_content_key(spec_for(pair))
        assert job_content_key(spec_for(pair, alpha=1)) == default
        assert job_content_key(spec_for(pair, alpha=1.0)) == default
        assert job_content_key(spec_for(pair, threshold=0)) == job_content_key(
            spec_for(pair, threshold=0.0)
        )
        # A singleton match never reads delta ...
        assert job_content_key(spec_for(pair, delta=0.5)) == default
        # ... a composite one does.
        composite = job_content_key(spec_for(pair, composite=True))
        assert job_content_key(
            spec_for(pair, composite=True, delta=0.5)
        ) != composite

    def test_stored_spec_decodes_to_the_same_request(self, pair):
        plan = {"specs": [{"site": "search.round", "kind": "interrupt"}]}
        for overrides in ({}, {"composite": True, "fault_plan": plan}):
            request = spec_for(pair, **overrides)
            assert MatchRequest.from_json(request.to_json()) == request

    def test_full_spelled_spec_still_decodes(self, pair):
        # A queue row may spell every field out, defaults included.
        spelled = {
            "log_first": str(pair[0]), "log_second": str(pair[1]),
            "format": "auto", "on_error": "raise", "composite": False,
            "labels": False, "alpha": None, "threshold": 0.0, "delta": 0.01,
            "estimate": None, "timeout": None, "pair_budget": None,
            "fault_plan": None,
        }
        assert MatchRequest.from_json(spelled) == spec_for(pair)
        # The retired composite ``workers`` knob is an unknown field on
        # submission; only the scheduler drops it from rows an older
        # version queued (test_request_parity pins that path).
        with pytest.raises(JobSpecError, match="workers"):
            MatchRequest.from_json({**spelled, "workers": 0})


class TestJobQueue:
    @pytest.fixture()
    def queue(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.db")
        yield queue
        queue.close()

    def test_submit_claim_finish(self, queue, pair):
        record, created = queue.submit(spec_for(pair), source="http")
        assert created and record.state == STATE_QUEUED
        claimed = queue.claim()
        assert claimed.id == record.id
        assert claimed.state == STATE_RUNNING
        assert claimed.attempts == 1
        queue.finish(claimed.id, {"objective": 1.0})
        done = queue.get(record.id)
        assert done.state == STATE_DONE
        assert done.result == {"objective": 1.0}

    def test_duplicate_submission_dedups(self, queue, pair):
        first, created = queue.submit(spec_for(pair), source="http")
        again, created_again = queue.submit(spec_for(pair), source="watch")
        assert created and not created_again
        assert again.id == first.id
        assert sum(1 for _ in queue.jobs()) == 1

    def test_claim_order_is_fifo_and_empty_is_none(self, queue, pair, tmp_path):
        assert queue.claim() is None
        queue.submit(spec_for(pair), source="http")
        other = write_csv(tmp_path / "c.csv", [["q", "r"]])
        second_spec = MatchRequest.from_json(
            {"log_first": str(other), "log_second": str(pair[1])}
        )
        queue.submit(second_spec, source="http")
        first = queue.claim()
        second = queue.claim()
        assert first.submitted <= second.submitted
        assert queue.claim() is None

    def test_fail_bury_requeue(self, queue, pair):
        record, _ = queue.submit(spec_for(pair), source="http")
        queue.claim()
        queue.requeue(record.id, "transient")
        assert queue.get(record.id).state == STATE_QUEUED
        queue.claim()
        queue.fail(record.id, "bad input")
        assert queue.get(record.id).state == STATE_FAILED
        queue.bury(record.id, "poison")
        assert queue.get(record.id).state == STATE_DEAD

    def test_recover_requeues_running_jobs(self, tmp_path, pair):
        path = tmp_path / "jobs.db"
        queue = JobQueue(path)
        record, _ = queue.submit(spec_for(pair), source="http")
        queue.claim()
        assert queue.get(record.id).state == STATE_RUNNING
        queue.close()
        # A new life: the interrupted job is re-queued, attempts kept.
        revived = JobQueue(path)
        assert revived.recover() == 1
        job = revived.get(record.id)
        assert job.state == STATE_QUEUED
        assert job.attempts == 1
        revived.close()

    def test_lifecycle_counters(self, tmp_path, pair):
        observer = Observer(metrics=MetricsRegistry())
        queue = JobQueue(tmp_path / "jobs.db", observer=observer)
        queue.submit(spec_for(pair), source="http")
        queue.submit(spec_for(pair), source="http")
        claimed = queue.claim()
        queue.finish(claimed.id, {})
        snapshot = observer.metrics.as_dict()
        assert snapshot["jobs_submitted_total"]["value"] == 1
        assert snapshot["jobs_deduped_total"]["value"] == 1
        assert snapshot["jobs_completed_total"]["value"] == 1
        assert snapshot["queue_depth"]["value"] == 0
        queue.close()

    def test_concurrent_submitters_dedup_to_one_job(self, tmp_path, pair):
        queue = JobQueue(tmp_path / "jobs.db")
        spec = spec_for(pair)
        barrier = threading.Barrier(4)
        results = []

        def submit():
            barrier.wait(timeout=10)
            results.append(queue.submit(spec, source="http"))

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(results) == 4
        assert len({record.id for record, _ in results}) == 1
        assert sum(1 for _, created in results if created) == 1
        queue.close()
