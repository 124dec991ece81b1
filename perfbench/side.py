"""One side of a benchmark run: a beamlab source tree, swept and checked.

``Run`` times and checks the sweeps and CSV writes of one workload. It
serves the traced run inside ``run.py`` and, as a process of its own,
each side of an untraced run:

    python3 side.py <src-dir> <workload> <seed> <work-dir>

imports beamlab from ``<src-dir>``, warms up, prints ``ready`` and
answers commands read from stdin one line at a time, each with one
stdout line:

* ``sweep N``: N ``run_experiment`` calls; answers their total wall
  seconds.
* ``csv N``: N ``emit_csv`` calls of the last sweep's result; answers
  their total wall seconds.
* ``report``: answers a JSON object with the checks' outcome, the
  computed counts and the peak RSS.

``run.py`` runs the live code (``src/``) and the frozen seed code
(``seedcode/``) as two such processes, so both run the same benchmark
code in the same kind of process.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WARMUP_TRIALS, WORKLOADS, check, load_reference, make_config, method_points


def file_digest(paths):
    """(sha256, bytes, lines) of the files, read in chunks to keep RSS flat."""
    sha, size, lines = hashlib.sha256(), 0, 0
    for path in paths:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                sha.update(chunk)
                size += len(chunk)
                lines += chunk.count(b"\n")
    return sha.hexdigest(), size, lines


def child_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Run:
    """One benchmark run: the sweeps made, their checks and their timings."""

    def __init__(self, bl, name, seed, work_dir):
        self.bl = bl
        self.name = name
        self.workers = WORKLOADS[name].workers
        self.config = make_config(bl, name, seed)
        self.reference = load_reference()[name][str(seed)]
        self.csv_path = Path(work_dir) / f"{name}.csv"
        self.csv_digest = self.csv_bytes = self.csv_rows = None
        self.attempted = 0
        self.failed_sweeps = set()
        self.problems = []
        self.completed_points = self.attempted_points = None

    def sweep(self, workers=None):
        """Time and check one ``run_experiment``; returns (result, s, child CPU s)."""
        workers = self.workers if workers is None else workers
        cpu0 = child_cpu_s()
        start = time.perf_counter()
        result = self.bl.run_experiment(self.config, workers=workers)
        elapsed = time.perf_counter() - start
        cpu = child_cpu_s() - cpu0
        self.attempted += 1
        problems = check(result, self.reference)
        if problems:
            self.failed_sweeps.add(self.attempted)
            self.problems.extend(problems[:5])
        self.completed_points, self.attempted_points = method_points(result)
        return result, elapsed, cpu

    def write_csv(self, result):
        """Time one ``emit_csv``; a CSV pair unlike the run's first fails it."""
        start = time.perf_counter()
        paths = self.bl.emit_csv(result, self.csv_path)
        elapsed = time.perf_counter() - start
        digest, size, rows = file_digest(paths)
        if self.csv_digest is None:
            self.csv_digest, self.csv_bytes, self.csv_rows = digest, size, rows
        elif digest != self.csv_digest:
            self.failed_sweeps.add(self.attempted)
            self.problems.append("CSV bytes differ between sweeps of one config")
        return elapsed

    def report(self):
        """Outcome of the checks, computed counts and peak RSS in KiB."""
        # Pool workers are the only children this process reaps; the
        # largest one's peak stands for each of them.
        worker_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "attempted": self.attempted,
            "failed": len(self.failed_sweeps),
            "problems": self.problems[:20],
            "completed_points": self.completed_points,
            "attempted_points": self.attempted_points,
            "csv_bytes": self.csv_bytes,
            "csv_rows": self.csv_rows,
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + self.workers * worker_kib,
        }

    def warm_up(self):
        small = make_config(self.bl, self.name, self.config.seed, trials=WARMUP_TRIALS)
        result = self.bl.run_experiment(small, workers=self.workers)
        self.bl.emit_csv(result, self.csv_path.with_name("warmup.csv"))


def serve(src, name, seed, work_dir):
    """Answer commands on stdin for the beamlab under ``src``, as above."""
    sys.path.insert(0, src)
    import beamlab as bl

    run = Run(bl, name, seed, work_dir)
    run.warm_up()
    print("ready", flush=True)
    result = None
    for line in sys.stdin:
        command, *arg = line.split()
        if command == "sweep":
            answer = 0.0
            for _ in range(int(arg[0])):
                result = None
                result, elapsed, _ = run.sweep()
                answer += elapsed
        elif command == "csv":
            answer = sum(run.write_csv(result) for _ in range(int(arg[0])))
        elif command == "report":
            answer = json.dumps(run.report())
        else:
            sys.exit(f"side: unknown command {line!r}")
        print(answer, flush=True)


if __name__ == "__main__":
    serve(sys.argv[1], sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
