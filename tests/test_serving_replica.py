"""Replica set tests: dispatch modes, crash respawn, restart budget."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import TrainingError
from repro.graphs.generators import barabasi_albert_graph
from repro.serving.replica import ReplicaConfig, ReplicaSet
from repro.serving.service import InfluenceService, ServiceConfig

from tests.test_serving_registry import make_artifact

_GRAPH = barabasi_albert_graph(50, 2, rng=7)
_ARTIFACT = make_artifact(seed=2)


def _factory():
    service = InfluenceService(
        _ARTIFACT, _GRAPH, config=ServiceConfig(max_inflight=8)
    )
    return service, None


def _request(url: str, path: str, payload: dict | None = None):
    if payload is None:
        request = urllib.request.Request(url + path)
    else:
        request = urllib.request.Request(
            url + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(request, timeout=15) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _await(predicate, timeout=15.0, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.mark.parametrize("mode", ["reuseport", "shared"])
class TestReplicaModes:
    def test_serves_and_respawns(self, mode):
        config = ReplicaConfig(
            replicas=2,
            mode=mode,
            heartbeat_interval=0.1,
            heartbeat_timeout=3.0,
            restart_budget=3,
        )
        with ReplicaSet(_factory, config) as replica_set:
            # every replica answers through the one public port
            for _ in range(4):
                status, payload = _request(replica_set.url, "/healthz")
                assert status == 200 and payload["status"] == "ok"
            status, payload = _request(
                replica_set.url, "/v1/score", {"nodes": [0, 1]}
            )
            assert status == 200 and len(payload["scores"]) == 2

            # chaos: hard-kill one worker; the monitor must respawn it
            old_pid = replica_set.kill_replica(0)
            assert _await(
                lambda: (
                    replica_set.total_restarts >= 1
                    and all(
                        entry["alive"]
                        for entry in replica_set.stats()["replicas"]
                    )
                )
            ), replica_set.stats()
            new_pid = replica_set.stats()["replicas"][0]["pid"]
            assert new_pid != old_pid
            assert not replica_set.degraded

            # in-flight traffic on the survivor was never corrupted and
            # the respawned worker serves again
            for _ in range(6):
                status, payload = _request(replica_set.url, "/healthz")
                assert status == 200 and payload["status"] == "ok"


class TestRestartBudget:
    def test_budget_exhaustion_marks_set_degraded(self):
        config = ReplicaConfig(
            replicas=2,
            heartbeat_interval=0.1,
            heartbeat_timeout=3.0,
            restart_budget=0,
        )
        with ReplicaSet(_factory, config) as replica_set:
            replica_set.kill_replica(0)
            assert _await(lambda: replica_set.degraded)
            stats = replica_set.stats()
            assert stats["total_restarts"] == 0
            assert not stats["replicas"][0]["alive"]
            # the survivor keeps serving — degraded, not dead
            status, _ = _request(replica_set.url, "/healthz")
            assert status == 200


class TestLifecycle:
    def test_start_twice_rejected(self):
        replica_set = ReplicaSet(_factory, ReplicaConfig(replicas=1))
        replica_set.start()
        try:
            with pytest.raises(TrainingError):
                replica_set.start()
        finally:
            replica_set.stop()

    def test_url_before_start_rejected(self):
        replica_set = ReplicaSet(_factory, ReplicaConfig(replicas=1))
        with pytest.raises(TrainingError):
            replica_set.url

    def test_stop_reaps_every_worker(self):
        replica_set = ReplicaSet(_factory, ReplicaConfig(replicas=2))
        replica_set.start()
        processes = [entry.process for entry in replica_set._replicas]
        replica_set.stop()
        for process in processes:
            assert not process.is_alive()

    def test_config_validation(self):
        with pytest.raises(TrainingError):
            ReplicaConfig(replicas=0)
        with pytest.raises(TrainingError):
            ReplicaConfig(mode="round-robin")
        with pytest.raises(TrainingError):
            ReplicaConfig(restart_budget=-1)
        with pytest.raises(TrainingError):
            ReplicaConfig(heartbeat_interval=0.0)


class TestMutationRefused:
    def test_live_mutation_answers_409_and_leaves_graph_unchanged(self):
        with ReplicaSet(_factory, ReplicaConfig(replicas=2)) as replica_set:
            status, before = _request(replica_set.url, "/healthz")
            assert status == 200
            # Enough attempts that both replicas are asked, whichever
            # accepts each connection.
            for _ in range(4):
                status, payload = _request(
                    replica_set.url,
                    "/v1/graph/edges",
                    {"op": "add", "edges": [[0, 49]]},
                )
                assert status == 409
                assert "--replicas" in payload["error"]
            for _ in range(4):
                status, after = _request(replica_set.url, "/healthz")
                assert status == 200
                assert after["graph_fingerprint"] == before["graph_fingerprint"]
                assert after["graph_mutations"] == 0
