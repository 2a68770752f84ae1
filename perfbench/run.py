"""End-to-end benchmark of the ctfpolys CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload polys --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload

Workloads (see workloads.py): ``polys``, ``classes`` and ``corpus``. Each
repetition runs the workload's commands through ``ctfpolys.cli.main`` in a
fresh interpreter, so the package's module-level caches start empty, as they
do for a CLI user. Repetitions run one at a time. Repetition k runs with
PYTHONHASHSEED=k, whatever the workload seed, so that every run samples the
same string-hash layouts.

With ``--trace 0`` a run reports, as medians over its repetitions:

- ``run_ref_s``: ``run_s`` (the wall time of the workload's ``cli.main``
  calls) scaled to the speed at which the calibration loop of child.py takes
  REF_CALIBRATION_S. The loop runs in the same process after set-up and
  after each command; each command is scaled by the mean of the two loops
  around it. On a shared host one CPU's speed drifts by up to 2x over
  tens of seconds, which moves raw ``run_s`` medians by 10-35% between runs;
  the scaled time cancels most of the drift. Raw ``run_s`` is in the report
  and the results file.
- ``setup_s``: interpreter start until ``ctfpolys`` is imported and the
  inputs are read, scaled by the calibration loop that follows it;
  set-up-only probes add samples. Raw ``setup_raw_s`` is in the report and
  the results file.
- ``peak_rss_mb``: ``ru_maxrss`` of the repetition's process.

With ``--trace 1`` it alternates plain and traced repetitions and reports the
per-layer metrics of tracer.py as medians over the traced ones, with
``trace.overhead_s`` = median traced minus median plain ``run_s``.

Every output is checked against the references in ``references/``; failed
operations count in ``failed``. Raw samples, the commit, Python version, CPU
count and load averages go to ``results/BENCH_<workload>_seed<n>[_trace].json``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS, check_command, load_reference, operations, write_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
RESULTS = BENCH_DIR / "results"

#: Set-up-only interpreters started per run, after one unmeasured warm-up.
SETUP_PROBES = 5
MIN_REPS = 2
#: Start another round of repetitions only if 1.5 typical rounds still fit,
#: so a run ends within its seconds.
REP_MARGIN = 1.5
#: Calibration-loop time that defines the reference speed of run_ref_s.
REF_CALIBRATION_S = 0.1
#: No child may outlive this many seconds after the run started.
DEADLINE_S = 170.0

#: Metrics of a plain run, with units; the first three are end-to-end
#: metrics with bounds in BENCHMARK.json.
SAMPLES = (("run_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
           ("run_s", "s"), ("setup_raw_s", "s"))
END_TO_END = SAMPLES[:3]


class BenchmarkError(RuntimeError):
    """The harness could not measure: a child crashed or ran out of time."""


class Repetitions:
    """Starts the child interpreters of one run inside a work directory."""

    def __init__(self, work: Path, inputs: list[str], commands: list[list[str]],
                 deadline: float):
        self.work = work
        self.inputs = inputs
        self.commands = commands
        self.deadline = deadline
        self.started = 0

    def _spawn(self, hash_seed: int, setup_only: bool, trace: bool) -> dict:
        n = self.started
        self.started += 1
        spec = {
            "src": str(SRC),
            "inputs": self.inputs,
            "commands": self.commands,
            "setup_only": setup_only,
            "trace": trace,
            "result": str(self.work / f"result{n}.json"),
            "spans": str(self.work / f"spans{n}.bin"),
        }
        spec_path = self.work / f"spec{n}.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        began = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(spec_path)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, self.deadline - began),
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError("a repetition ran past the run's deadline") from None
        ended = time.monotonic()
        if proc.returncode != 0:
            raise BenchmarkError(
                f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        result = json.loads(Path(spec["result"]).read_text())
        result["setup_raw_s"] = result.pop("ready") - began
        result["setup_s"] = (result["setup_raw_s"] * REF_CALIBRATION_S
                             / result["calibration_s"][0])
        result.update(wall_s=ended - began, hash_seed=hash_seed, traced=trace,
                      spans=spec["spans"])
        return result

    def setup_probe(self) -> dict:
        return self._spawn(1, setup_only=True, trace=False)

    def repetition(self, hash_seed: int, trace: bool = False) -> dict:
        return self._spawn(hash_seed, setup_only=False, trace=trace)


def _check(workload: str, ops: list[dict], rep: dict, reference) -> tuple[int, int]:
    """(attempted, failed) operations of one repetition."""
    counts = [
        check_command(workload, op, command, reference)
        for op, command in zip(ops, rep["commands"])
    ]
    return sum(a for a, _ in counts), sum(f for _, f in counts)


def _commit() -> str | None:
    """HEAD of the checkout's git repository, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _layer_median(values: list):
    """Median of one per-layer metric over the traced repetitions; counts
    stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _summary(sample: list[float]) -> dict:
    return {"median": statistics.median(sample), "n": len(sample), "samples": sample}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full record of the run."""
    started = time.monotonic()
    reference = load_reference(workload)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        work = Path(tmp)
        inputs = write_inputs(workload, seed, work)
        ops = operations(workload, inputs)
        runner = Repetitions(
            work, [str(p) for p in inputs.values()], [op["argv"] for op in ops],
            started + DEADLINE_S,
        )
        runner.setup_probe()  # writes the bytecode caches; not measured
        probes = [runner.setup_probe() for _ in range(SETUP_PROBES)]
        reps, rounds = [], []
        while True:
            began = time.monotonic()
            reps.append(runner.repetition(len(rounds) + 1))
            if trace:
                reps.append(runner.repetition(len(rounds) + 1, trace=True))
            rounds.append(time.monotonic() - began)
            typical = statistics.median(rounds)
            now = time.monotonic()
            if len(rounds) >= MIN_REPS and now - started + REP_MARGIN * typical > seconds:
                break
            if now + typical > started + DEADLINE_S:
                break
        for rep in reps:
            rep["attempted"], rep["failed"] = _check(workload, ops, rep, reference)
            cal = rep["calibration_s"]
            rep["run_ref_s"] = sum(
                c["seconds"] * REF_CALIBRATION_S * 2 / (cal[i] + cal[i + 1])
                for i, c in enumerate(rep["commands"])
            )
        traced = [r for r in reps if r["traced"]]
        layers = [
            tracer.layer_metrics(tracer.span_stats(*tracer.read_spans(Path(r["spans"]))),
                                 r["counters"])
            for r in traced
        ]

    plain = [r for r in reps if not r["traced"]]
    record["loadavg_end"] = os.getloadavg()
    record["samples"] = {
        name: _summary([r[name] for r in (probes + reps if "setup" in name else plain)])
        for name, _ in SAMPLES
    }
    record["repetitions"] = [
        {
            key: r[key]
            for key in ("hash_seed", "traced", "run_s", "run_ref_s", "calibration_s",
                        "setup_s", "setup_raw_s", "peak_rss_mb", "attempted", "failed")
        } | {
            "command_seconds": [c["seconds"] for c in r["commands"]],
            "errors": [c["error"] or c["stderr"] for c in r["commands"]
                       if c["error"] or c["exit"] != 0],
        }
        for r in reps
    ]
    record["attempted"] = sum(r["attempted"] for r in reps)
    record["failed"] = sum(r["failed"] for r in reps)
    record["failed_share"] = record["failed"] / record["attempted"]
    if trace:
        overhead = (statistics.median(r["run_s"] for r in traced)
                    - statistics.median(r["run_s"] for r in plain))
        record["layers"] = layers
        record["metrics"] = {
            name: {
                "value": overhead if name == "trace.overhead_s"
                else _layer_median([m[name] for m in layers]),
                "unit": unit,
            }
            for name, unit, _ in tracer.PER_LAYER
        }
    else:
        record["metrics"] = {
            name: {"value": record["samples"][name]["median"], "unit": unit}
            for name, unit in END_TO_END
        }
    return record


def result_line(record: dict) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def report(record: dict) -> str:
    """Human-readable table of one run."""
    lines = [f"{record['workload']} (seed {record['seed']}): "
             f"failed_share {record['failed_share']:.4g} ratio "
             f"({record['failed']}/{record['attempted']} operations)"]
    if record["trace"]:
        rows = [(name, m["value"], m["unit"], len(record["layers"]))
                for name, m in record["metrics"].items()]
    else:
        rows = [(name, record["samples"][name]["median"], unit, record["samples"][name]["n"])
                for name, unit in SAMPLES]
    for name, value, unit, n in rows:
        lines.append(f"  {name:<42} {value:>14.6g} {unit:<6} n={n}")
    return "\n".join(lines)


def _save(record: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    suffix = "_trace" if record["trace"] else ""
    path = RESULTS / f"BENCH_{record['workload']}_seed{record['seed']}{suffix}.json"
    path.write_text(json.dumps(record, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ctfpolys" / "__init__.py").is_file():
        print(f"error: no ctfpolys sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _save(record)
            print(report(record), file=sys.stderr if args.workload != "all" else sys.stdout,
                  flush=True)
            records.append(record)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({r["workload"]: result_line(r) for r in records}))
    else:
        print(json.dumps(result_line(records[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
