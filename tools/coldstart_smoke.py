"""Cold-start vs warm-start smoke for the durable artifact cache.

Starts ``repro serve`` twice against the *same* ``--artifact-dir``:

1. **cold** — empty cache: the first request compiles the pattern, and
   the server persists the engine artifact on the way;
2. **warm** — fresh process, same directory: the first request must load
   the artifact instead of recompiling.

Asserts that the warm instance reports at least one artifact hit on
``/metrics`` and that its first response is at least
``MINIMUM_COLD_WARM_RATIO``× faster than the cold one (first-response
latency is dominated by plan + table + kernel construction, which is
exactly what the artifact skips).  Exits non-zero on any violation —
CI's cold-start smoke step runs this script directly::

    python tools/coldstart_smoke.py

An optional argument overrides the cache directory (default: a fresh
temporary directory, deleted afterwards).
"""

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

#: Deliberately redundant pattern at ``opt_level=2``: sixteen
#: near-identical branches make the planner's budgeted determinisation
#: and collapse passes expensive, while the *planned* automaton — the
#: thing the artifact stores — stays small.  Cold start pays for the
#: planning; warm start only for the artifact load.
PATTERN = (
    ".*("
    + "|".join(f"Seller: s{{[^,\\n]*}}, ID{i}5" for i in range(16))
    + ").*"
)
OPT_LEVEL = 2
DOCUMENT = "Seller: John, ID75\n"

#: The warm first response must beat the cold one by at least this much.
MINIMUM_COLD_WARM_RATIO = 2.0

_HEALTH_ATTEMPTS = 150


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode()


def _first_response(port: int, cache_dir: str) -> tuple[float, dict, dict]:
    """(first-response seconds, response JSON, artifact gauges) for one
    freshly started server."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            str(port),
            "--batch-delay",
            "0",
            "--artifact-dir",
            cache_dir,
        ],
    )
    try:
        for _ in range(_HEALTH_ATTEMPTS):
            try:
                _get(f"http://127.0.0.1:{port}/healthz")
                break
            except (urllib.error.URLError, OSError):
                time.sleep(0.1)
        else:
            raise RuntimeError("server never became healthy")
        body = json.dumps(
            {"pattern": PATTERN, "document": DOCUMENT, "opt_level": OPT_LEVEL}
        ).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/enumerate",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        started = time.perf_counter()
        with urllib.request.urlopen(request, timeout=30) as response:
            reply = json.loads(response.read().decode())
        elapsed = time.perf_counter() - started
        gauges = {}
        for line in _get(f"http://127.0.0.1:{port}/metrics").splitlines():
            if line.startswith("repro_artifact_"):
                name, value = line.split()
                gauges[name] = float(value)
        return elapsed, reply, gauges
    finally:
        process.send_signal(signal.SIGTERM)
        if process.wait(timeout=30) != 0:
            raise RuntimeError("server did not drain cleanly")


def main() -> int:
    if len(sys.argv) > 1:
        cache_dir, cleanup = sys.argv[1], False
    else:
        cache_dir, cleanup = tempfile.mkdtemp(prefix="repro-artifacts-"), True
    try:
        cold_s, cold_reply, cold_gauges = _first_response(8261, cache_dir)
        warm_s, warm_reply, warm_gauges = _first_response(8262, cache_dir)
        print(f"cold first response: {cold_s * 1000:.1f} ms  {cold_gauges}")
        print(f"warm first response: {warm_s * 1000:.1f} ms  {warm_gauges}")
        mappings = cold_reply["results"][0]["mappings"]
        assert mappings == [{"s": "John"}], cold_reply
        assert warm_reply == cold_reply, "restart changed the output"
        assert cold_gauges.get("repro_artifact_saves") == 1, cold_gauges
        assert warm_gauges.get("repro_artifact_hits", 0) >= 1, (
            "warm server answered without touching the artifact cache"
        )
        assert warm_gauges.get("repro_artifact_misses", 1) == 0, warm_gauges
        ratio = cold_s / warm_s if warm_s else float("inf")
        print(f"cold/warm first-response ratio: {ratio:.2f}x")
        assert ratio >= MINIMUM_COLD_WARM_RATIO, (
            f"warm start only {ratio:.2f}x faster than cold "
            f"(need {MINIMUM_COLD_WARM_RATIO}x)"
        )
        print("cold-start smoke OK")
        return 0
    finally:
        if cleanup:
            shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
