"""Run one workload of the repository's benchmark and print its result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-b1 --seed 1 --seconds 25 --trace 0

Workloads: ``serve-b1``, ``serve-b16-streamed``, ``sweep-train``,
``sweep-replay`` (see ``BENCHMARK.json`` for why each was chosen).  Every
input is generated from ``--seed``.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` spends half of ``--seconds`` untraced and
half traced and reports the per-layer metrics, the tracing overhead and
(on the serve workloads) the per-stage Fig. 3 table.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--out FILE`` also writes the full record (host block,
set-up samples, tail percentile, every metric) for ``compare.py``.

The program is imported from ``src/`` next to this directory; BLAS is
pinned to one thread before numpy loads, so one closed-loop caller is
measured on one core.  Bounded timings are scaled to a reference host
speed measured between items (``harness.HostPace``); the human-readable
lines show the raw figures beside them.
"""

from __future__ import annotations

import os

# Pin BLAS before anything imports numpy: the benchmark measures one
# caller on one core, not OpenBLAS spinning every core at batch 1.
BLAS_THREADS = "1"
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

WORKLOADS = ("serve-b1", "serve-b16-streamed", "sweep-train", "sweep-replay")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="",
                        help="also write the full JSON record to this file")
    return parser.parse_args(argv)


def build_workload(name: str, seed: int, work_dir: str):
    if name.startswith("serve"):
        import serve
        return serve.workloads(seed, work_dir)[name]
    import sweeps
    return sweeps.workloads(seed, work_dir)[name]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"perfbench: no program source at {SOURCE}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)

    import catalogue
    import harness

    benchmark = catalogue.load_benchmark()
    scratch = os.path.join(ROOT, ".perfbench-work")
    work_dir = os.path.join(scratch, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    workload = None
    try:
        workload = build_workload(args.workload, args.seed, work_dir)
        record = harness.run(workload, args.seconds, bool(args.trace))
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is still using it

    record.update(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                  host=harness.host_block(args.seed, catalogue.DTYPE))
    if args.trace:
        measured = record["layers"]
        # Layers a workload never touches read 0 (e.g. tiling on serve-b1).
        record["layers"] = {entry["name"]: measured.get(entry["name"], 0.0)
                            for entry in benchmark["per_layer"]}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(record, stream, indent=1, sort_keys=True)
    for line in harness.format_record(record, benchmark, catalogue.moves_text):
        print(line)
    print(json.dumps(harness.result_line(record, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
