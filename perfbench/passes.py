"""One measured pass: the five CLI stages, in order, through `flowcodec.cli.main`.

The benchmark runs each pass in a fresh process, as a user runs each CLI
command, so every pass starts equally cold:

    python3 perfbench/passes.py <inputs_dir> <out_dir> <measure|plain|trace>

In `measure` mode every stage runs at least once in each of ROUNDS rounds
over the stage list, so that it is sampled at more than one moment of the
pass, and a short stage runs again, with the same arguments and outputs,
until its runs add up to MIN_STAGE_SECONDS or it has run MAX_RUNS times
(each round tops up to its share of both). Each run is one timing sample,
and sits between two runs of the reference work (speed.py), which say how
fast the machine was at that moment. `plain` and `trace` run each stage
once, so the traced pass and the untraced pass it is compared with do the
same work.

Prints one JSON line: the wall seconds of each run of each stage, in
`measure` mode the reference seconds before and after each run, the stage
invocations attempted and the ones that failed, and in `trace` mode the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speed import reference_seconds

MIN_STAGE_SECONDS = 4.0
MAX_RUNS = 9
ROUNDS = 3


def stage_argvs(inputs, out: Path) -> dict[str, list[str]]:
    cfg = ["--config", str(inputs.config)]
    model = ["--model", str(out / "model/autoencoder.fcae"),
             "--preprocessor", str(out / "model/preprocessor.json")]
    return {
        "train": ["train", *cfg, "--input", str(inputs.train_csv), "--output-dir", str(out / "model")],
        "compress": ["compress", *cfg, *model, "--input", str(inputs.codec_csv),
                     "--output", str(out / "codec.fclz")],
        "decompress": ["decompress", *model, "--input", str(out / "codec.fclz"),
                       "--output", str(out / "recon.csv")],
        "evaluate": ["evaluate", *cfg, "--original", str(inputs.codec_csv),
                     "--reconstructed", str(out / "recon.csv"), "--output-dir", str(out / "eval")],
        "compare": ["compare", *cfg, *model, "--input", str(inputs.train_csv),
                    "--output-dir", str(out / "compare")],
    }


def run_stage(argv: list[str], tracer=None) -> float | None:
    """Run one CLI stage; its wall seconds, or None if it failed."""
    from flowcodec import cli

    log = io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer is not None else contextlib.nullcontext()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log), span:
            rc = cli.main(argv)
    except Exception:
        rc = traceback.format_exc()
    seconds = perf_counter() - t0
    if rc == 0:
        return seconds
    print(f"stage {argv[0]} failed ({rc}):\n{log.getvalue()}", file=sys.stderr)
    return None


def run_pass(inputs, out: Path, repeat: bool, tracer=None) -> dict:
    """Run the stages until one fails; later stages need its outputs."""
    argvs = stage_argvs(inputs, out)
    result = {"times": {stage: [] for stage in argvs}, "attempted": 0, "failures": []}
    if repeat:
        result["reference"] = {stage: [] for stage in argvs}
        last = reference_seconds()
    rounds = ROUNDS if repeat else 1
    for round_no in range(1, rounds + 1):
        for stage, argv in argvs.items():
            runs = result["times"][stage]
            budget = MIN_STAGE_SECONDS * round_no / rounds
            while len(runs) < round_no or (
                repeat and sum(runs) < budget and len(runs) < MAX_RUNS * round_no // rounds
            ):
                result["attempted"] += 1
                seconds = run_stage(argv, tracer)
                if seconds is None:
                    result["failures"].append(f"{stage} exits 0")
                    return result
                runs.append(seconds)
                if repeat:
                    # One reference run between two stage runs serves both.
                    after = reference_seconds()
                    result["reference"][stage].append((last, after))
                    last = after
    return result


def main(inputs_dir: str, out_dir: str, mode: str) -> None:
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    from workloads import Inputs

    inputs = Inputs(Path(inputs_dir))
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        with tracer.installed():
            result = run_pass(inputs, Path(out_dir), False, tracer)
        result["per_layer"] = tracer.per_layer()
    else:
        result = run_pass(inputs, Path(out_dir), mode == "measure")
    print(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:4])
