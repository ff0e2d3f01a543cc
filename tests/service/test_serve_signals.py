"""``repro serve`` stopped by SIGTERM leaves no process behind.

The server runs in its own session, so its process group holds it, the
worker pool's forkserver and resource tracker and the pool workers.  One
pooled ``/match-many`` batch starts the pool; after SIGTERM to the server
alone, every process of the group must be gone.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

import repro
from repro import ArtifactStore
from repro.cli import main
from repro.relational import load_database
from repro.relational.jsonio import database_to_dict

PROC = pathlib.Path("/proc")

pytestmark = pytest.mark.skipif(
    not PROC.is_dir() or not hasattr(os, "killpg"),
    reason="needs POSIX process groups and /proc")


def live_members(group: int) -> list[int]:
    """Pids of the processes in process group *group* that have not
    exited (zombies, already dead, excluded)."""
    members = []
    for entry in PROC.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while listing
        # "pid (comm) state ppid pgrp ...": comm may hold spaces.
        state, _, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        if int(pgrp) == group and state != "Z":
            members.append(int(entry.name))
    return members


def startup(stream) -> dict:
    """The server's startup JSON, read line by line from *stream*."""
    text = ""
    while True:
        line = stream.readline()
        if not line:
            raise AssertionError(f"repro serve exited before startup: {text}")
        text += line.decode("utf-8")
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            continue


@pytest.fixture(scope="module")
def served_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("sigterm")
    assert main(["generate", "retail", str(root / "wl"), "--rows", "80",
                 "--seed", "7"]) == 0
    assert main(["store", "save", str(root / "wl" / "tgt"), "--store",
                 str(root / "store"), "--inference", "src"]) == 0
    return root


def test_sigterm_stops_the_worker_pool(served_store, capsys):
    capsys.readouterr()
    env = dict(os.environ)
    package_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root, *filter(None, [env.get("PYTHONPATH")])])
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store",
         str(served_store / "store"), "--port", "0", "--jobs", "2",
         "--inference", "src", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        start_new_session=True)
    group = server.pid
    token = ArtifactStore(served_store / "store").entries()[0].token
    try:
        base = startup(server.stdout)["serving"]
        source = database_to_dict(load_database(
            str(served_store / "wl" / "src"), name="source"))
        request = urllib.request.Request(
            base + "/match-many",
            data=json.dumps({"target": token,
                             "sources": [source, source]}).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=120) as response:
            batch = json.loads(response.read())
        assert batch["throughput"]["backend"] == "process"
        assert len(batch["results"]) == 2
        assert len(live_members(group)) > 1  # the pool is running

        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=10) == 0
        deadline = time.monotonic() + 10
        while live_members(group) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert live_members(group) == []
    finally:
        server.stdout.close()
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        server.wait()
