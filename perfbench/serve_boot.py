"""Run the registry query service in a process of its own.

    python3 perfbench/serve_boot.py AUTH_TOKEN

Imports the service, prints ``READY`` and then obeys one command per
line on standard input, answering ``OK``:

``serve DIR``
    stop the current server, if any, and serve registry ``DIR`` with
    bearer-token auth on an ephemeral port of 127.0.0.1; the answer is
    ``OK <port>``;
``trace-on DIR``
    install the layer wrappers (worker files, if any, go to ``DIR``);
``trace-off FILE``
    write the totals recorded since ``trace-on`` to ``FILE`` and remove
    the wrappers;
``stop``
    shut the server down gracefully.  End of input does the same.

Keeping the server out of the load generator's process means the
client's interpreter lock never competes with the server's.  Serving
several registries from one process keeps interpreter start-up out of
the benchmark's set-up time.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
from repro.service.server import ServiceServer  # noqa: E402


def main() -> int:
    token = sys.argv[1]
    server = None
    installed = None
    try:
        print("READY", flush=True)
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            answer = "OK"
            if command == "stop":
                break
            if command == "serve":
                if server is not None:
                    server.stop()
                server = ServiceServer(argument, port=0, access_log=None, auth_token=token).start()
                answer = f"OK {server.address[1]}"
            elif command == "trace-on":
                installed = layers.install(Path(argument))
            elif command == "trace-off" and installed is not None:
                totals = installed.recorder.snapshot()
                installed.remove()
                installed = None
                Path(argument).write_text(json.dumps(totals))
            print(answer, flush=True)
    finally:
        if installed is not None:
            installed.remove()
        if server is not None:
            server.stop()
    print("STOPPED", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
