"""HTTP surface and watch-folder ingestion of the daemon."""

import json
import time

import pytest

from repro.obs import PROMETHEUS_CONTENT_TYPE
from repro.service import MatchingService

from .conftest import http, write_csv


@pytest.fixture()
def service(tmp_path):
    service = MatchingService(
        tmp_path / "store", workers=1, watch_dir=tmp_path / "inbox"
    )
    service.start()
    yield service
    service.stop()


@pytest.fixture()
def base(service):
    return f"http://{service.host}:{service.port}"


def wait_for_state(base, job_id, states=("done", "failed", "dead"), timeout=30):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, document = http("GET", f"{base}/jobs/{job_id}")
        assert status == 200
        if document["state"] in states:
            return document
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached {states}")


class TestRoutes:
    def test_healthz(self, base):
        status, document = http("GET", f"{base}/healthz")
        assert status == 200
        assert document["status"] == "ok"
        assert document["queue_depth"] == 0

    def test_metrics_exposition_contract(self, base):
        import urllib.request

        with urllib.request.urlopen(f"{base}/metrics", timeout=30) as response:
            assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            text = response.read().decode()
        assert text.endswith("\n")

    def test_unknown_route_404(self, base):
        status, document = http("GET", f"{base}/nope")
        assert status == 404
        assert "no such route" in document["error"]

    def test_unknown_job_404(self, base):
        status, _ = http("GET", f"{base}/jobs/deadbeef")
        assert status == 404
        status, _ = http("GET", f"{base}/jobs/deadbeef/result")
        assert status == 404

    def test_result_of_pending_job_is_409(self, base, service, csv_pair):
        # Stall the scheduler by submitting against a paused queue: use
        # a job that cannot be claimed yet — simplest is to ask for the
        # result while the job may still be queued/running; if it is
        # already done the 200 path is equally valid, so force the 409
        # by submitting directly to the queue without waking a worker.
        from repro.request import MatchRequest

        request = MatchRequest.from_json(
            {"log_first": str(csv_pair[0]), "log_second": str(csv_pair[1]),
             "threshold": 0.99}
        )
        record, _ = service.queue.submit(request, source="test")
        status, document = http("GET", f"{base}/jobs/{record.id}/result")
        if status == 409:  # not yet picked up / still running
            assert document["state"] in ("queued", "running")
        else:  # a worker raced us and finished it — also correct
            assert status == 200

    def test_malformed_submission_400_and_dead_lettered(self, base, service):
        status, document = http("POST", f"{base}/jobs", {"nonsense": True})
        assert status == 400
        assert "unknown job spec field" in document["error"]
        status, document = http("GET", f"{base}/deadletters")
        assert status == 200
        assert len(document["deadletters"]) == 1
        occurrence = document["deadletters"][0]["occurrences"][0]
        assert "unknown job spec field" in occurrence["problem"]
        assert occurrence["mode"] == "http"

    def test_unparseable_body_400(self, base):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"{base}/jobs", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=30)
        assert caught.value.code == 400

    def test_jobs_listing(self, base, csv_pair):
        spec = {"log_first": str(csv_pair[0]), "log_second": str(csv_pair[1])}
        status, document = http("POST", f"{base}/jobs", spec)
        assert status == 201
        status, listing = http("GET", f"{base}/jobs")
        assert status == 200
        assert [job["id"] for job in listing["jobs"]] == [document["id"]]


class TestWatchFolder:
    def test_dropped_spec_becomes_a_job(self, service, base, csv_pair, tmp_path):
        inbox = tmp_path / "inbox"
        spec = {"log_first": str(csv_pair[0]), "log_second": str(csv_pair[1])}
        (inbox / "pair.json").write_text(json.dumps(spec))
        deadline = time.time() + 30
        receipt = inbox / "pair.json.accepted"
        while time.time() < deadline and not receipt.exists():
            time.sleep(0.05)
        assert receipt.exists(), "watcher never accepted the drop"
        job_id = json.loads(receipt.read_text())["job"]
        document = wait_for_state(base, job_id)
        assert document["state"] == "done"
        assert document["source"] == "watch"
        assert not (inbox / "pair.json").exists()

    def test_malformed_drop_is_rejected_and_archived(
        self, service, base, tmp_path
    ):
        inbox = tmp_path / "inbox"
        (inbox / "broken.json").write_text("{not json")
        deadline = time.time() + 30
        receipt = inbox / "broken.json.rejected"
        while time.time() < deadline and not receipt.exists():
            time.sleep(0.05)
        assert receipt.exists(), "watcher never rejected the drop"
        status, document = http("GET", f"{base}/deadletters")
        assert status == 200
        assert any(
            occurrence["mode"] == "watch"
            for entry in document["deadletters"]
            for occurrence in entry["occurrences"]
        )
