"""Benchmark of `cgbell analyze` and `cgbell canon` on seeded workloads.

    python3 bench/run.py --workload fixtures --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The workload's inputs are generated from --seed and written to a file,
which `cgbell.cli.main` then reads in-process as a user's command would
(`analyze --input FILE --workers 1`, or `canon --input FILE`).  Passes over
the whole batch repeat while another one fits in --seconds; the outputs are
then checked apart from the package, and the last line of standard output
is one JSON object with the metrics.  The same object, with each pass's
unscaled and scaled seconds and mean probe time, goes to
bench/results/<workload>-s<seed>-t<trace>.json.

--trace 0 reports the end-to-end metrics (wall_s, row_p50_s, setup_s,
peak_rss_mb), with times scaled by probe() (see there).  --trace 1 is a
separate run that wraps the package's public functions and reports the
per-layer metrics of spans.LAYER_METRICS; its times are never used as
end-to-end figures.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: OpenBLAS otherwise starts a
# thread per core at import, whose CPU time exceeds the set-up wall time.
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCE = SRC / "cgbell" / "data" / "fixture_reference.csv"

PROBE_REF_S = 0.002  # the probe's time in quiet phases of a 2-core x86-64 VM

# Fresh interpreters started per run for setup_s; the first few before the
# passes, one after each pass, the rest at the end.  Spreading them over the
# run keeps one slow phase of the machine from setting the median.
SETUP_LAUNCHES = 9
SETUP_BEFORE = 3
SETUP_CODE = (
    "import pathlib, sys; sys.path.insert(0, sys.argv[1]); import cgbell.cli; "
    "cgbell.parse_file(pathlib.Path(sys.argv[2]).read_text(encoding='utf-8'))"
)

# Each row's span: one analyze_table per analysed inequality, one
# canonical_form per canonicalised one.  Both are looked up in cgbell.analysis.
ROW_FUNCTION = {"analyze": "analyze_table", "canon": "canonical_form"}
ROW_FAILURE = re.compile(r"^row \d+ .* failed: ", re.MULTILINE)


def load_package():
    """Import cgbell from this checkout's src/, never from elsewhere."""
    if not (SRC / "cgbell" / "__init__.py").is_file():
        sys.exit(f"run.py: no package at {SRC / 'cgbell'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import cgbell
    import cgbell.cli

    if SRC not in Path(cgbell.__file__).resolve().parents:
        sys.exit(f"run.py: imported cgbell from {cgbell.__file__}, not from {SRC}")
    return cgbell


def command_argv(work: workloads.Workload, path: Path) -> list[str]:
    if work.command == "analyze":
        return ["analyze", "--input", str(path), "--workers", "1"]
    return ["canon", "--input", str(path)]


def run_cli(main, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        raise RuntimeError(f"cgbell {' '.join(argv)} rejected its input: {err.getvalue()}")
    return code, out.getvalue(), err.getvalue()


def probe() -> float:
    """Seconds for a fixed mix of interpreter, Fraction and small-array numpy work.

    The machine's speed drifts by up to a factor of two, in phases from
    seconds to minutes, and CPU time drifts with it.  Every timed interval
    is divided by the probe times taken just before and after it and
    multiplied by PROBE_REF_S, which turns it into seconds at the speed
    where the probe takes PROBE_REF_S.  The mix follows the package's:
    dict and tuple churn (relabeling scans), Fractions (exact rank and
    thresholds) and numpy on arrays of a few dozen entries (see-saw).
    The collector is off while it runs, so the number of objects the
    program keeps alive does not enter the probe's time.  A probe in a
    separate interpreter shares no heap at all, but it tracked the drift
    four times worse: on the 2-core x86-64 VM, passes scaled by it had a
    CV of 18 %, against 4 % with this one (bench/README.md).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        seen: dict = {}
        for i in range(4000):
            key = (i % 61, i * 7 % 13)
            seen[key] = seen.get(key, 0) + 1
        total = Fraction(0)
        for i in range(1, 200):
            total += Fraction(i % 7, i)
        a = np.arange(48.0).reshape(6, 8)
        for _ in range(60):
            np.linalg.norm((a @ a.T)[:, :3], axis=1).sum()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    return seconds * PROBE_REF_S / ((before + after) / 2)


def launch_setup(path: Path) -> float:
    """Scaled seconds from starting a fresh interpreter to cgbell imported and the input parsed."""
    before = probe()
    start = perf_counter()  # the child inherits BLAS_ENV through os.environ
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(path)],
                   check=True, stdout=subprocess.DEVNULL)
    elapsed = perf_counter() - start
    return scaled(elapsed, before, probe())


class RowClock:
    """Times each row call of one pass, with a probe just before each row.

    It wraps the row function (analyze_table or canonical_form) where
    cgbell.analysis looks it up; in a timed run that is the only hook.
    """

    def __init__(self, run_probe=probe):
        self.run_probe = run_probe
        self.rows: list[float] = []
        self.probes: list[float] = []

    @contextlib.contextmanager
    def around(self, module, attr: str):
        fn = getattr(module, attr)

        def timed(*args, **kwargs):
            self.probes.append(self.run_probe())
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.rows.append(perf_counter() - start)

        setattr(module, attr, timed)
        try:
            yield self
        finally:
            setattr(module, attr, fn)
        self.probes.append(self.run_probe())

    def scaled_rows(self) -> list[float]:
        return [scaled(r, b, a) for r, b, a in zip(self.rows, self.probes, self.probes[1:])]


@dataclass
class Pass:
    """One pass of the command over the whole batch."""

    rows: list[float]  # each row's scaled seconds
    rest: float  # scaled seconds of the pass outside rows and probes
    raw: float  # unscaled seconds of the pass, probes included
    mean_probe: float
    output: tuple[int, str, str]


def clocked_pass(cgbell, work, main, argv, run_probe=probe) -> Pass:
    with RowClock(run_probe).around(cgbell.analysis, ROW_FUNCTION[work.command]) as clock:
        start = perf_counter()
        output = run_cli(main, argv)
        raw = perf_counter() - start
    # argument handling, parsing and output: the pass less its rows and probes
    rest = raw - sum(clock.rows) - sum(clock.probes[:-1])
    mean_probe = statistics.fmean(clock.probes)
    return Pass(clock.scaled_rows(), scaled(rest, mean_probe, mean_probe), raw, mean_probe, output)


def batch_seconds(passes: list[Pass]) -> tuple[float, float]:
    """(wall, row median): each row's median over the passes, so one pass
    caught by a phase the probes missed moves no figure."""
    row_medians = [statistics.median(times) for times in zip(*(p.rows for p in passes))]
    wall = sum(row_medians) + statistics.median(p.rest for p in passes)
    return wall, statistics.median(row_medians)


def pass_summary(passes: list[Pass]) -> dict:
    """Per-pass figures for the result file, unscaled next to scaled."""
    return {
        "unscaled_s": [p.raw for p in passes],
        "scaled_s": [sum(p.rows) + p.rest for p in passes],
        "mean_probe_s": [p.mean_probe for p in passes],
        "unscaled_median_s": statistics.median(p.raw for p in passes),
        "scaled_median_s": statistics.median(sum(p.rows) + p.rest for p in passes),
    }


def warm_up(cgbell, work, tag: str) -> None:
    """One row through the same command, so lazy imports are not timed."""
    path = RESULTS / f"{tag}-warmup.txt"
    path.write_text(workloads.serialize(work.rows[:1]), encoding="utf-8")
    run_cli(cgbell.cli.main, command_argv(work, path))


def timed_run(cgbell, work, path: Path, seconds: float):
    argv = command_argv(work, path)
    setup = [launch_setup(path) for _ in range(SETUP_BEFORE)]
    passes: list[Pass] = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() + passes[-1].raw <= deadline:  # whole passes only
        passes.append(clocked_pass(cgbell, work, cgbell.cli.main, argv))
        if len(setup) < SETUP_LAUNCHES:
            setup.append(launch_setup(path))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup) < SETUP_LAUNCHES:
        setup.append(launch_setup(path))
    wall, row_p50 = batch_seconds(passes)
    metrics = {
        "wall_s": (wall, "s"),
        "row_p50_s": (row_p50, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    summary = {**pass_summary(passes), "setup_s": setup}
    print(f"{len(passes)} passes, scaled: {' '.join(f'{s:.3f}' for s in summary['scaled_s'])} s; "
          f"unscaled with probes: {' '.join(f'{s:.3f}' for s in summary['unscaled_s'])} s; "
          f"setup, scaled: {' '.join(f'{s:.3f}' for s in setup)} s", file=sys.stderr)
    return metrics, summary, [p.output for p in passes]


def traced_run(cgbell, work, path: Path, seconds: float, trace_path: Path):
    """Per-layer metrics, each pass scaled by the mean of its row probes.

    The row clock runs as in a timed run, outside the spans, and each
    probe is a span of its own, so no layer's self time holds a probe.
    The batch's wall time is figured as wall_s is, which gives the
    tracing overhead against a timed run.
    """
    argv = command_argv(work, path)
    recorder = spans.Recorder()
    main = lambda args: recorder.call("cli.main", cgbell.cli.main, args)  # noqa: E731
    run_probe = lambda: recorder.call("bench.probe", probe)  # noqa: E731
    passes: list[Pass] = []
    bounds = []
    with recorder.instrument(cgbell):
        deadline = perf_counter() + seconds
        while not passes or perf_counter() + passes[-1].raw <= deadline:
            first = len(recorder.spans)
            passes.append(clocked_pass(cgbell, work, main, argv, run_probe))
            bounds.append((first, len(recorder.spans)))
    recorder.write(trace_path, bounds)
    units = {metric: "s" if kind in ("s", "self_s") else "count"
             for metric, kind, _ in spans.LAYER_METRICS}
    per_pass = [{name: value * PROBE_REF_S / p.mean_probe if units[name] == "s" else value
                 for name, value in recorder.metrics(first, last).items()}
                for (first, last), p in zip(bounds, passes)]
    metrics = {name: (value, units[name]) for name, value in spans.summarize(per_pass).items()}
    wall, row_p50 = batch_seconds(passes)
    summary = {**pass_summary(passes), "traced_wall_s": wall, "traced_row_p50_s": row_p50}
    print(f"{len(passes)} traced passes, scaled: {' '.join(f'{s:.3f}' for s in summary['scaled_s'])} s; "
          f"traced wall {wall:.4f} s, row median {row_p50:.4f} s (figured as wall_s, row_p50_s); "
          f"spans, unscaled, in {trace_path}", file=sys.stderr)
    return metrics, summary, [p.output for p in passes]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cgbell = load_package()
    work = workloads.build(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    path = RESULTS / f"{tag}.txt"
    path.write_text(workloads.serialize(work.rows), encoding="utf-8")

    warm_up(cgbell, work, tag)
    if args.trace:
        metrics, summary, outputs = traced_run(cgbell, work, path, args.seconds,
                                               RESULTS / f"{tag}.trace.jsonl")
    else:
        metrics, summary, outputs = timed_run(cgbell, work, path, args.seconds)

    text = outputs[-1][1]
    (RESULTS / f"{tag}.out").write_text(text, encoding="utf-8")
    reference = checks.parse_csv(REFERENCE.read_text(encoding="utf-8"))
    failures = checks.check(work, text, reference)
    if any(out != text for _, out, _ in outputs):
        failures.append("the output differs between passes over the same input")
    failed = sum(len(ROW_FAILURE.findall(err)) for _, _, err in outputs)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(outputs) * len(work.rows),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps({**result, "passes": summary}, indent=1),
                                         encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
