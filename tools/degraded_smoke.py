"""Degraded-mode smoke for the fault-tolerant serving path.

Starts ``repro serve`` with worker processes, a zero rebuild budget, and
``REPRO_FAULT_POISON`` armed, then drives it through the full
degradation cycle an operator would see:

1. **healthy** — ``/healthz`` answers ``ok``;
2. **break the pool** — POST a document carrying the poison token: the
   worker SIGKILLs itself, the zero budget fails the pool, and the
   server must still answer the request correctly (in-process fallback);
3. **degraded** — ``/healthz`` must now read ``degraded`` with
   ``pool.alive == false``, and ``/metrics`` must report
   ``repro_degraded 1``; a clean request inside the reset window is
   answered correctly on the already-failed pool's in-process fallback,
   and ``/healthz`` still reads ``degraded`` after it;
4. **recover** — after ``--degraded-reset`` the next request revives the
   pool (the poison knob is gone from the environment by then only for
   *new* workers, so the request must be clean) and ``/healthz`` flips
   back to ``ok``.

Exits non-zero on any violation — CI's server-smoke job runs this
script directly::

    python tools/degraded_smoke.py
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

PATTERN = ".*Seller: x{[^,\\n]*},.*"
POISON = "POISON-PILL"
PORT = 8271
DEGRADED_RESET = 1.0

_HEALTH_ATTEMPTS = 150


def _get_json(path: str) -> dict:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{PORT}{path}", timeout=10
    ) as response:
        return json.loads(response.read().decode())


def _metrics() -> str:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{PORT}/metrics", timeout=10
    ) as response:
        return response.read().decode()


def _enumerate(document: str) -> dict:
    body = json.dumps({"pattern": PATTERN, "document": document}).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{PORT}/enumerate",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read().decode())


def main() -> int:
    environment = dict(os.environ)
    environment["REPRO_FAULT_POISON"] = POISON
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            str(PORT),
            "--workers",
            "2",
            "--batch-delay",
            "0",
            "--max-rebuilds",
            "0",
            "--degraded-reset",
            str(DEGRADED_RESET),
        ],
        env=environment,
    )
    try:
        for _ in range(_HEALTH_ATTEMPTS):
            try:
                health = _get_json("/healthz")
                break
            except (urllib.error.URLError, OSError):
                time.sleep(0.1)
        else:
            raise RuntimeError("server never became healthy")
        assert health["status"] == "ok", health

        # A poison document kills its worker; the zero rebuild budget
        # fails the pool — but the answer must still be right.
        reply = _enumerate(f"Seller: John, {POISON}\n")
        assert reply["results"][0]["mappings"] == [{"x": "John"}], reply
        assert reply["results"][0]["error"] is None, reply

        health = _get_json("/healthz")
        print(f"after pool breakage: {health}")
        assert health["status"] == "degraded", health
        assert health["degraded"] is True, health
        assert health["pool"]["alive"] is False, health
        assert "repro_degraded 1" in _metrics(), "metrics missed degradation"

        # Inside the window the failed pool is not touched: the request
        # is answered in-process and the server stays degraded.
        reply = _enumerate("Seller: Ann, ID9\n")
        assert reply["results"][0]["mappings"] == [{"x": "Ann"}], reply
        assert reply["results"][0]["error"] is None, reply
        health = _get_json("/healthz")
        assert health["status"] == "degraded", health
        assert health["pool"]["alive"] is False, health

        # Past the reset window the next request revives the pool.  New
        # workers inherit the poison knob too, so send a clean document.
        time.sleep(DEGRADED_RESET + 0.2)
        reply = _enumerate("Seller: Mark, ID7\n")
        assert reply["results"][0]["mappings"] == [{"x": "Mark"}], reply

        health = _get_json("/healthz")
        print(f"after recovery: {health}")
        assert health["status"] == "ok", health
        assert health["degraded"] is False, health
        assert health["pool"]["alive"] is True, health
        assert "repro_degraded 0" in _metrics(), "metrics missed recovery"

        print("degraded-mode smoke OK")
        return 0
    finally:
        process.send_signal(signal.SIGTERM)
        if process.wait(timeout=30) != 0:
            raise RuntimeError("server did not drain cleanly")


if __name__ == "__main__":
    sys.exit(main())
