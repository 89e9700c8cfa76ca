"""Graceful shutdown under real signals, against real subprocesses.

These tests exercise the paths a deployment hits: ``SIGTERM`` to a running
``eblow serve`` daemon mid-job, and ``SIGTERM`` to a CLI ``eblow batch``
run.  Both must drain — finish or cancel in-flight work, flush their
artifacts (metrics snapshot, manifest) — and leave nothing behind: no
orphaned worker processes, no ``/dev/shm`` segments, no stale socket
files.
"""

import glob
import json
import os
import signal
import socket as socketlib
import subprocess
import sys
import time

import pytest

from repro.serve import ServeClient

DELAY_FAULT = [{"kind": "delay", "seconds": 2.0, "match": "1T"}]


def _env(**extra):
    env = dict(os.environ)
    env.update(extra)
    return env


def _shm_segments():
    return set(glob.glob("/dev/shm/eblow-*"))


def _wait_for(path, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return
        time.sleep(0.05)
    raise AssertionError(f"{path} did not appear within the timeout")


def _children(pid):
    """Pids whose parent is ``pid`` (read from ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


class TestServeProcesses:
    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_daemon_runs_exactly_its_workers_and_leaves_no_relay(self, tmp_path):
        socket_path = str(tmp_path / "serve.sock")
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", socket_path,
                "--workers", "2",
                "--cache-dir", str(tmp_path / "cache"),
            ],
            env=_env(TMPDIR=str(scratch)),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            _wait_for(socket_path)
            events = []
            with ServeClient(socket=socket_path, timeout=120) as client:
                result = client.plan("1T-1", scale=0.12, on_event=events.append)
            assert result.ok
            assert {"started", "finished"} <= {event.type for event in events}
            # The pool's workers, and no event-relay server beside them.
            assert len(_children(proc.pid)) == 2
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 0, stderr
        assert stderr == ""
        assert list(scratch.iterdir()) == []  # the relay's socket went with it


class TestServeSigterm:
    def test_sigterm_drains_flushes_metrics_and_leaks_nothing(self, tmp_path):
        socket_path = str(tmp_path / "serve.sock")
        metrics_path = str(tmp_path / "metrics.json")
        before = _shm_segments()
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", socket_path,
                "--workers", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--metrics-out", metrics_path,
            ],
            env=_env(REPRO_FAULTS=json.dumps(DELAY_FAULT)),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            _wait_for(socket_path)
            sock = socketlib.socket(socketlib.AF_UNIX)
            sock.connect(socket_path)
            sock.settimeout(120)
            stream = sock.makefile("rwb")
            request = {
                "v": 1, "id": "r1", "verb": "plan",
                "request": {"planner": "eblow", "case": "1T-1", "scale": 0.12},
            }
            stream.write((json.dumps(request) + "\n").encode())
            stream.flush()
            ack = json.loads(stream.readline())
            assert ack["frame"] == "ack"
            # SIGTERM while the delayed job is in flight: the drain must
            # still deliver its result before the process exits.
            time.sleep(0.5)
            proc.send_signal(signal.SIGTERM)
            result = json.loads(stream.readline())
            stream.close()
            sock.close()
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)

        assert proc.returncode == 0, stderr
        assert result["frame"] == "result"
        assert result["result"]["status"] == "ok"
        assert "listening on" in stdout
        assert "drained" in stdout
        assert stderr == ""
        # Telemetry was flushed on the way out, with the serving counters.
        snapshot = json.loads(open(metrics_path).read())
        series = snapshot["metrics"]["serve_requests_total"]["series"]
        by_outcome = {entry["labels"]["outcome"]: entry["value"] for entry in series}
        assert by_outcome == {"computed": 1.0}
        # Nothing left behind: socket unlinked, no orphaned shm segments.
        assert not os.path.exists(socket_path)
        assert _shm_segments() - before == set()


class TestServeArenaDrain:
    def test_drain_reports_no_leaked_segments_after_an_inline_instance(self, tmp_path):
        """Named cases first, then an inline instance, then SIGTERM.

        The inline instance ships to a worker pickled with its job, so the
        drain leaves no ``/dev/shm`` segment and stderr carries no
        ``resource_tracker`` leak report.
        """
        from repro.workloads import build_instance

        socket_path = str(tmp_path / "serve.sock")
        before = _shm_segments()
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", socket_path,
                "--workers", "2",
                "--cache-dir", str(tmp_path / "cache"),
            ],
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            _wait_for(socket_path)
            with ServeClient(socket=socket_path, timeout=120) as client:
                burst = client.batch(
                    [{"case": "1T-1", "scale": 0.12, "planner": "eblow"}] * 4
                )
                assert all(result.ok for result in burst)
                assert client.plan("2T-4", planner="eblow-2d", scale=1.0).ok
                inline = client.plan(build_instance("1T-2", 0.12), planner="greedy-1d")
                assert inline.ok
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 0, stderr
        assert "resource_tracker" not in stderr
        assert stderr == ""
        assert _shm_segments() - before == set()


class TestBatchSigterm:
    def test_sigterm_drains_and_flushes_the_manifest(self, tmp_path):
        manifest = str(tmp_path / "run.jsonl")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "batch",
                "--cases", "1T-1", "1T-2", "1T-3",
                "--jobs", "1",
                "--scale", "0.12",
                "--no-cache",
                "--manifest", manifest,
            ],
            env=_env(REPRO_FAULTS=json.dumps(DELAY_FAULT)),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            time.sleep(1.0)  # let the first delayed job get in flight
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)

        assert proc.returncode == 1
        assert "draining" in stderr
        assert "drained after signal" in stderr
        # The summary and manifest were still written on the way out.
        assert "manifest written to" in stdout
        records = [json.loads(line) for line in open(manifest) if line.strip()]
        assert records, "manifest is empty"
