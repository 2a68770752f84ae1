"""One benchmark repetition in a fresh interpreter.

Usage: python3 child.py SPEC.json

The spec names the package's source directory, the input files, the CLI
commands and where to write the result. The child imports ``ctfpolys`` from
that directory, reads the inputs, notes the time (the end of set-up), then
runs every command through ``ctfpolys.cli.main`` with its output captured and
writes a JSON result. With ``"trace": true`` it installs the span tracer
first and writes the spans next to the result.

After set-up and after every command it times a fixed calibration loop that does not touch the package, so the harness can tell a
slow program from a slow machine: on a shared host the speed of one CPU
drifts by up to 2x over tens of seconds.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path


def calibration_loop() -> int:
    """Fixed pure-Python work in the style of the package's kernels (box
    enumeration, a linear constraint, zero-mask histogram, Fraction sums);
    about 0.1 s on a 2 GHz Xeon."""
    hist: dict[int, int] = {}
    for vec in product(range(-2, 3), repeat=8):
        if vec[0] - vec[1] + vec[2] - vec[3] + vec[4] - vec[5] + vec[6] - vec[7]:
            continue
        mask = 0
        for i, x in enumerate(vec):
            if x == 0:
                mask |= 1 << i
        hist[mask] = hist.get(mask, 0) + 1
    total = Fraction(0)
    for mask, n in hist.items():
        total += Fraction(n, mask + 1)
    return total.numerator


def timed_calibration() -> float:
    began = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - began


def run_command(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    exit_code, error = None, None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            exit_code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        exit_code = exc.code
    except Exception as exc:  # an operation that raises is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    return {"exit": exit_code, "error": error, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import ctfpolys
    from ctfpolys import cli

    if src not in Path(ctfpolys.__file__).resolve().parents:
        print(f"ctfpolys was imported from {ctfpolys.__file__}, not {src}", file=sys.stderr)
        return 2
    for path in spec["inputs"]:
        Path(path).read_text()
    ready = time.monotonic()
    result = {"ready": ready, "calibration_s": [timed_calibration()]}

    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(ctfpolys)
        commands = []
        calibration = result["calibration_s"]
        for argv in spec["commands"]:
            began = time.perf_counter()
            commands.append(run_command(cli, argv))
            commands[-1]["seconds"] = time.perf_counter() - began
            calibration.append(timed_calibration())
        result["run_s"] = sum(c["seconds"] for c in commands)
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["commands"] = commands
        if tracer is not None:
            tracer.dump(Path(spec["spans"]))
            result["counters"] = tracer.counters()

    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
