"""Pipeline benchmark: flowcodec's CLI stages on seeded synthetic inputs.

    python3 perfbench/run.py --workload codec-25k --seed 1 --seconds 20 --trace 0

Set-up generates the workload's inputs from the seed, in this process,
three times, and reports the median time. Each measured pass then runs
train, compress, decompress, evaluate and compare through
`flowcodec.cli.main` in one fresh child process (passes.py), one stage at a
time, so each pass starts as cold as a user's CLI command and the children's
peak memory is the measured stages' own. Passes repeat, one after the other,
until --seconds have gone by, and at least MIN_PASSES times, so that stage
times are medians of several samples and every artifact can be checked to
be byte-identical across passes. Every time is scaled by the machine's
speed at that moment (speed.py). With --trace 1 the set-up is traced once,
then a traced pass runs between two untraced ones, and the per-layer
metrics are reported instead.

Prints a report, then as its last line one JSON object with the keys
correct, attempted, failed and metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread, here and in the pass processes, which inherit it. On a
# shared 2-core box, OpenBLAS with two threads at times stalls matrix
# products for many seconds, and then a pass runs up to ten times
# slower.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy  # noqa: E402  (reads OPENBLAS_NUM_THREADS when it loads)

import checks  # noqa: E402
from speed import reference_seconds, scaled  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
MIN_PASSES = 2  # the byte-identity checks compare two passes
# Artifacts that must be byte-identical across passes of one run.
DETERMINISTIC = {
    "autoencoder.fcae": "model/autoencoder.fcae",
    "train_summary.json": "model/train_summary.json",
    "codec.fclz": "codec.fclz",
    "recon.csv": "recon.csv",
    "reconstruction_report.json": "eval/reconstruction_report.json",
    "classification_report_original.json": "compare/classification_report_original.json",
    "classification_report_compressed.json": "compare/classification_report_compressed.json",
}


class Tally:
    """Set-ups, stage invocations and output checks, attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok


def pass_in_child(inputs, out: Path, mode: str, tally: Tally) -> dict | None:
    """Run one pass in a fresh process (see passes.py for ``mode``); its
    result, or None if a stage failed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "passes.py"), str(inputs.directory), str(out), mode],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not tally.check("measured pass exits 0", proc.returncode == 0 and result is not None):
        print(proc.stderr, file=sys.stderr)
        return None
    tally.attempted += result["attempted"]
    tally.failures += result["failures"]
    if result["failures"]:
        print(proc.stderr, file=sys.stderr)
        return None
    return result


def check_pass(inputs, out: Path, n_rows: int, reference: dict | None, tally: Tally) -> dict:
    """Check one pass's outputs; returns the hashes of its deterministic
    artifacts. ``reference`` holds the first pass's hashes, or None for the
    first pass itself, which alone gets the row-by-row pass-through check."""
    from flowcodec.flow_data import FeatureSchema

    try:
        checks.fclz_sections(out / "codec.fclz")
        ok = True
    except (OSError, ValueError, KeyError) as exc:
        print(exc, file=sys.stderr)
        ok = False
    tally.check("fclz sections sum to the file size", ok)
    report = json.loads((out / "eval/reconstruction_report.json").read_text())
    tally.check("evaluate reports every input row", report["n_rows"] == n_rows)
    hashes = {name: checks.sha256(out / rel) for name, rel in DETERMINISTIC.items()}
    if reference is None:
        schema = FeatureSchema()
        names = [*schema.identity_columns, schema.label_column]
        tally.check(
            "recon.csv keeps row count, identity and label columns",
            checks.same_pass_through(inputs.codec_csv, out / "recon.csv", names),
        )
    else:
        for name, digest in hashes.items():
            tally.check(f"{name} identical across passes", digest == reference[name])
    return hashes


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    site = Path(numpy.__file__).resolve().parent.parent
    for lib in glob.glob(str(site / "numpy.libs" / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                return int(getattr(ctypes.CDLL(lib), symbol)())
            except (OSError, AttributeError):
                continue
    return None


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # not a git checkout
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    from flowcodec.forest import backend_name

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "split_kernel": backend_name(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": git_commit(),
    }


def setup(workload, seed: int, out: Path, tally: Tally):
    """Generate the workload's inputs in this process; None if that failed."""
    try:
        inputs = make_inputs(workload, seed, out)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        inputs = None
    tally.check("set-up generates the inputs", inputs is not None)
    return inputs


def rows_in(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1


def quality(inputs, out: Path) -> dict[str, float]:
    report = json.loads((out / "eval/reconstruction_report.json").read_text())
    summary = json.loads((out / "model/train_summary.json").read_text())
    comparison = json.loads((out / "compare/comparison_report.json").read_text())
    return {
        "container_ratio": inputs.codec_csv.stat().st_size / (out / "codec.fclz").stat().st_size,
        "recon_median_pe": statistics.mean(
            f["median_percent_error"] for f in report["per_feature"]
            if f["median_percent_error"] is not None
        ),
        "recon_rmse": report["global"]["rmse"],
        "best_test_loss": summary["best_test_loss"],
        "original_accuracy": comparison["original"]["accuracy"],
        "compressed_accuracy": comparison["compressed"]["accuracy"],
    }


def measure(workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics and the per-stage times behind them.
    Every time is scaled to the reference machine (speed.py)."""
    setup_s, setup_reference = [], []
    for i in range(SETUP_REPEATS):
        before = reference_seconds()
        t0 = perf_counter()
        again = setup(workload, seed, WORK / f"setup{i}", tally)
        setup_s.append(perf_counter() - t0)
        setup_reference.append((before, reference_seconds()))
        if again is None:
            return {}, {}
        digests = {p.name: checks.sha256(p) for p in again.files()}
        if i == 0:
            inputs, first = again, digests
        else:
            tally.check("set-up inputs identical across repeats", digests == first)
            shutil.rmtree(again.directory)
    n_rows = rows_in(inputs.codec_csv)

    passes: list[dict] = []
    reference = None
    t0 = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - t0 < seconds:
        out = WORK / f"pass{len(passes)}"
        result = pass_in_child(inputs, out, "measure", tally)
        if result is None:
            return {}, {}
        passes.append({"times": result["times"], "reference": result["reference"]})
        hashes = check_pass(inputs, out, n_rows, reference, tally)
        if reference is None:
            reference = hashes
        else:
            shutil.rmtree(out)
    # Set-up ran in this process, so the children's peak is the passes' own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    stages = passes[0]["times"]
    wall = {
        stage: statistics.median(t for p in passes for t in p["times"][stage]) for stage in stages
    }
    median = {
        stage: statistics.median(
            scaled(t, ref, stage)
            for p in passes
            for t, ref in zip(p["times"][stage], p["reference"][stage])
        )
        for stage in stages
    }
    metrics = {
        "setup_s": statistics.median(map(scaled, setup_s, setup_reference)),
        "compress_rows_per_s": n_rows / median["compress"],
        "decompress_rows_per_s": n_rows / median["decompress"],
        "evaluate_rows_per_s": n_rows / median["evaluate"],
        "train_s": median["train"],
        "compare_s": median["compare"],
        "peak_rss_mb": peak_rss_mb,
        **quality(inputs, WORK / "pass0"),
    }
    detail = {"setup_s": setup_s, "setup_reference": setup_reference, "passes": passes,
              "wall_median_s": wall, "codec_rows": n_rows}
    return metrics, detail


def pass_seconds(result: dict) -> float:
    return sum(sum(runs) for runs in result["times"].values())


def trace(workload, seed: int, tally: Tally) -> tuple[dict, dict]:
    """Traced run: set-up traced here, then a traced pass between two
    untraced ones, so that slow drift of the machine cancels out of the
    tracing overhead."""
    from spans import Tracer

    setup_tracer = Tracer()
    with setup_tracer.installed():
        inputs = setup(workload, seed, WORK / "setup0", tally)
    if inputs is None:
        return {}, {}
    n_rows = rows_in(inputs.codec_csv)

    results = []
    reference = None
    for i, mode in enumerate(("plain", "trace", "plain")):
        result = pass_in_child(inputs, WORK / f"pass{i}", mode, tally)
        if result is None:
            return {}, {}
        results.append(result)
        hashes = check_pass(inputs, WORK / f"pass{i}", n_rows, reference, tally)
        reference = reference or hashes
    before, traced, after = results
    out = WORK / "pass1"

    metrics = traced["per_layer"]
    metrics["flow_data.generate_synthetic.s"] = setup_tracer.per_layer()["flow_data.generate_synthetic.s"]
    metrics["trace_overhead_s"] = pass_seconds(traced) - (pass_seconds(before) + pass_seconds(after)) / 2
    summary = json.loads((out / "model/train_summary.json").read_text())
    metrics["autoencoder.epochs_run"] = summary["epochs_run"]
    metrics["autoencoder.best_epoch"] = summary["best_epoch"]
    metrics["autoencoder.early_stopped"] = int(summary["epochs_run"] < workload.max_epochs)
    with open(out / "model/training_history.csv", encoding="utf-8") as fh:
        epoch_seconds = [float(line.rsplit(",", 1)[1]) for line in fh.readlines()[1:]]
    metrics["neural.epoch_s"] = statistics.median(epoch_seconds)
    for section, size in checks.fclz_sections(out / "codec.fclz").items():
        metrics[f"latent.{section}_bytes"] = size
    detail = {"passes": [r["times"] for r in results], "traced_pass": 1, "codec_rows": n_rows}
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append this run's full record (JSON line)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "flowcodec" / "cli.py").is_file():
        print(f"error: no flowcodec source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    tally = Tally()
    try:
        if args.trace:
            metrics, detail = trace(workload, args.seed, tally)
        else:
            metrics, detail = measure(workload, args.seed, args.seconds, tally)
            if metrics:
                metrics["success_rate"] = 1.0 - len(tally.failures) / tally.attempted
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    tally.check("every metric reported", not missing)
    result_metrics = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in metrics
    }
    env = environment(args.seed)
    error_rate = len(tally.failures) / tally.attempted
    # Printed, not in the metric set: error_rate is 0 when all is well, and
    # recon_rmse follows a few heavy-tailed rows too closely to be steady
    # across seeds at 5k and 10k rows.
    extra = {"error_rate": (error_rate, "fraction")}
    if "recon_rmse" in metrics:
        extra["recon_rmse"] = (metrics["recon_rmse"], "raw")
    # The stage times as the wall clock read them, before scaling.
    for stage, wall_s in detail.get("wall_median_s", {}).items():
        extra[f"{stage}_wall_s"] = (wall_s, "s")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": result_metrics,
    }

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in result_metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    for name, (value, unit) in extra.items():
        print(f"  {name:40s} {value:>16.6g} {unit} (not in the metric set)")
    print(f"  {len(tally.failures)} of {tally.attempted} set-ups, stages and checks failed")
    for failure in tally.failures:
        print(f"  FAILED: {failure}")
    if missing:
        print(f"  missing metrics: {missing}")
    if args.record is not None:
        record = {"workload": workload.name, "trace": args.trace, "env": env, **result,
                  "failures": tally.failures, "extra": {k: v for k, (v, _) in extra.items()},
                  "detail": detail}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
