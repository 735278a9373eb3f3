"""Run one benchmark workload against the rauzycert CLI and print its metrics.

    python3 perfbench/run.py --workload certify_stream --seed 1 --seconds 20 --trace 0

Each operation is an in-process call of ``rauzycert.cli.main(argv)`` with
stdout captured.  A run processes whole rounds of one seeded list (see
workloads.py): it always finishes the first round and starts another only
while the round just timed predicts that it ends within ``--seconds``.
A fixed reference task (reference.py) runs between operations, and every
reported time is scaled to a machine on which that task takes 2 ms, so that
the drift of a shared machine cancels out.  After timing, every output is
checked by checker.py, which shares no code with the program.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
round with ``--trace 1``.  Outputs, results and traces go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
import workloads
from checker import CheckError
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 7
TAIL_BEYOND = 10

_SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import rauzycert.cli as cli\n"
    "cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def setup_seconds() -> float:
    """Median, over fresh interpreters, of importing rauzycert.cli and
    building its parser, each scaled by reference samples taken around it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = [reference.reference_task() for _ in range(3)]
        done = subprocess.run([sys.executable, "-c", _SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        after = [reference.reference_task() for _ in range(3)]
        samples.append(float(done.stdout) * reference.scale(before + after))
    return statistics.median(samples)


def run_op(cli, item):
    """One timed call; returns (seconds, exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(item.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


class Round:
    """The latencies, exit codes and output digests of one pass over the
    list, with a reference sample before each operation and after the last."""

    def __init__(self, cli, items, keep: Path | None, tracer: Tracer | None = None):
        self.raw, self.digests, self.failed = [], [], []
        self.references = [reference.reference_task()]
        self.stdout_bytes = 0
        start = time.perf_counter()
        for index, item in enumerate(items):
            if tracer is not None:
                tracer.op = index
            seconds, code, text, err = run_op(cli, item)
            self.references.append(reference.reference_task())
            self.raw.append(seconds)
            self.stdout_bytes += len(text.encode())
            self.digests.append(hashlib.sha256(text.encode()).hexdigest())
            if code != item.expect_exit:
                self.failed.append(index)
                print("failed: %s -> exit %r\n%s" % (" ".join(item.argv)[:200], code, err[-2000:]),
                      file=sys.stderr)
            elif keep is not None:
                (keep / ("%d.out" % index)).write_text(text)
        self.wall = time.perf_counter() - start
        self.latencies = [s * f for s, f in zip(self.raw, reference.scales(self.references))]


def check_outputs(items, rounds: list[Round], keep: Path) -> bool:
    """Check each output of the first round; later rounds must repeat its bytes."""
    first = rounds[0]
    correct = True
    for index, item in enumerate(items):
        if index in first.failed:
            continue
        try:
            item.check((keep / ("%d.out" % index)).read_text())
        except (CheckError, KeyError, ValueError, TypeError, IndexError) as exc:
            correct = False
            print("incorrect: %s: %s: %s" % (" ".join(item.argv)[:200], type(exc).__name__, exc),
                  file=sys.stderr)
        for later in rounds[1:]:
            if index not in later.failed and later.digests[index] != first.digests[index]:
                correct = False
                print("nondeterministic: %s" % " ".join(item.argv)[:200], file=sys.stderr)
    return correct


def timed_rounds(cli, items, seconds: float, keep: Path) -> list[Round]:
    rounds = [Round(cli, items, keep)]
    elapsed = rounds[0].wall
    while elapsed + rounds[-1].wall <= seconds:
        rounds.append(Round(cli, items, None))
        elapsed += rounds[-1].wall
    return rounds


def describe(items, rounds: list[Round]) -> None:
    """Per size class: count and latency range; and the classes that hold
    the median and tail ranks (stderr only)."""
    ranked = sorted((s, items[i].size_class) for r in rounds for i, s in enumerate(r.latencies))
    classes: dict[str, list[float]] = {}
    for seconds, size_class in ranked:
        classes.setdefault(size_class, []).append(seconds)
    for size_class, values in sorted(classes.items(), key=lambda kv: statistics.median(kv[1])):
        print("  %-26s %4d  median %9.2f ms  range %9.2f .. %9.2f ms" % (
            size_class, len(values), 1000 * statistics.median(values),
            1000 * values[0], 1000 * values[-1]), file=sys.stderr)
    tail = len(ranked) - TAIL_BEYOND * len(rounds) - 1
    print("  median rank in %s, tail rank in %s" % (
        ranked[len(ranked) // 2][1], ranked[tail][1]), file=sys.stderr)


def completed(rounds: list[Round], attribute: str) -> list[float]:
    """Sorted latencies (``latencies`` or ``raw``) of the operations that did not fail."""
    return sorted(s for r in rounds for i, s in enumerate(getattr(r, attribute))
                  if i not in r.failed)


def end_to_end(rounds: list[Round], list_length: int, setup: float) -> dict:
    latencies = completed(rounds, "latencies")
    raw = completed(rounds, "raw")
    beyond = TAIL_BEYOND * len(rounds)
    tail = max(0, len(latencies) - beyond - 1)
    print("latency_tail_ms: percentile %.2f, %d of %d operations beyond it"
          % (100.0 * (list_length - TAIL_BEYOND) / list_length, beyond, len(latencies)),
          file=sys.stderr)
    print("unscaled: items_per_s %.4g, latency_p50_ms %.4g, latency_tail_ms %.4g, "
          "reference median %.4g ms"
          % (len(raw) / sum(raw), 1000 * statistics.median(raw), 1000 * raw[tail],
             1000 * statistics.median(x for r in rounds for x in r.references)),
          file=sys.stderr)
    return {
        "items_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000.0 * latencies[tail], "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rauzycert" / "cli.py").is_file():
        print("no rauzycert sources under %s" % SRC, file=sys.stderr)
        return 1
    setup = setup_seconds() if args.trace == 0 else None
    sys.path.insert(0, str(SRC))
    import rauzycert.cli as cli

    items = workloads.build(args.workload, args.seed)
    keep = OUT / ("%s-%d" % (args.workload, os.getpid()))
    keep.mkdir(parents=True)
    try:
        run_op(cli, workloads.Item("warmup", ("perm", "--central", "3"), 0, None))
        # The benchmark's own objects stay out of the program's collections.
        gc.collect()
        gc.freeze()
        if args.trace == 0:
            rounds = timed_rounds(cli, items, args.seconds, keep)
            describe(items, rounds)
            metrics = end_to_end(rounds, len(items), setup)
        else:
            untraced = Round(cli, items, None)
            tracer = Tracer()
            tracer.install()
            try:
                traced = Round(cli, items, keep, tracer)
            finally:
                tracer.uninstall()
            rounds = [traced, untraced]
            tracer.write(OUT / ("trace-%s-seed%d.json.gz" % (args.workload, args.seed)))
            metrics = tracer.metrics(traced.stdout_bytes,
                                     sum(traced.latencies) / sum(untraced.latencies),
                                     reference.scale(traced.references))
        started = time.perf_counter()
        correct = check_outputs(items, rounds, keep)
        print("checks: %.1f s" % (time.perf_counter() - started), file=sys.stderr)
    finally:
        shutil.rmtree(keep, ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": len(items) * len(rounds),
        "failed": sum(len(r.failed) for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    name = "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (OUT / name).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
