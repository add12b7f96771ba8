"""The repository benchmark: one command, every workload, checked outputs.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  The program is imported from
``src/`` of that checkout; every file the run makes lives under
``perfbench/.work/`` and is removed at the end.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs a fixed amount of work twice, untraced and then with
the layer wrappers of ``layers.py`` installed, and reports the
per-layer metrics plus the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

See ``perfbench/README.md`` for the workloads, the metrics and what
each should move.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("batch", "serve-warm", "serve-churn")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import batch
    import serve
    from measure import host_reference_ms

    runner = {"batch": batch.run, "serve-warm": serve.run_warm, "serve-churn": serve.run_churn}[args.workload]
    scratch = BENCH / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    host_before = host_reference_ms()
    try:
        outcome = runner(args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(f"host: fixed CPU loop {host_before:.3f} ms before the run, {host_reference_ms():.3f} ms after")

    for line in outcome.lines:
        print(line)
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    print(f"failed_frac: {failed_frac:.6f} ({outcome.failed} of {outcome.attempted} operations)")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": max(outcome.attempted, 1),
                "failed": outcome.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
