"""Spans around the program's layer calls, recorded from outside the program.

`Tracer.installed()` replaces each traced function on the name its caller
looks up at call time, records one span per call (name, start, end, parent)
in memory, and puts the originals back on exit. `per_layer()` turns the
spans of one measured pass into the per-layer metrics that README.md lists.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter

import flowcodec.autoencoder as autoencoder
import flowcodec.classify_eval as classify_eval
import flowcodec.cli as cli
import flowcodec.eval_metrics as eval_metrics
import flowcodec.forest.model as forest_model
import flowcodec.forest.splitter as splitter
import flowcodec.preprocess as preprocess


def _forward_name(args, kwargs) -> str:
    # Training asks for the cache on batch steps only; the per-epoch loss
    # evaluation and encode/decode run the uncached forward.
    return "neural.forward_batch" if kwargs.get("with_cache") else "neural.forward"


def _count_rows(counts: Counter, dataset) -> None:
    counts["flow_data.load_csv.rows"] += len(dataset)


def _count_nodes(counts: Counter, tree) -> None:
    counts["forest.nodes"] += tree.n_nodes
    counts["forest.internal_nodes"] += int((tree.feature >= 0).sum())


# (module, attribute the caller looks up, span name or namer, result counter)
TARGETS = [
    (cli, "generate_synthetic", "flow_data.generate_synthetic", None),
    (cli, "load_csv", "flow_data.load_csv", _count_rows),
    (cli, "write_csv", "flow_data.write_csv", None),
    (cli, "read_latent", "latent.read_latent", None),
    (cli, "write_latent", "latent.write_latent", None),
    (cli, "fit_forest", "forest.fit_forest", None),
    (cli, "predict", "forest.predict", None),
    (preprocess, "fit", "preprocess.fit", None),
    (preprocess, "transform", "preprocess.transform", None),
    (preprocess, "inverse_transform", "preprocess.inverse_transform", None),
    (autoencoder, "load_model", "autoencoder.load_model", None),
    (autoencoder, "encode", "autoencoder.encode", None),
    (autoencoder, "decode", "autoencoder.decode", None),
    (autoencoder, "train", "autoencoder.train", None),
    (autoencoder, "forward", _forward_name, None),
    (autoencoder, "backward", "neural.backward", None),
    (autoencoder, "clip_global_norm", "neural.clip_global_norm", None),
    (autoencoder, "adam_step", "neural.adam_step", None),
    (autoencoder, "huber_loss", "neural.huber_loss", None),
    (eval_metrics, "build_report", "eval_metrics.build_report", None),
    (eval_metrics, "save_row_percent_errors", "eval_metrics.save_row_percent_errors", None),
    (classify_eval, "score", "classify_eval.score", None),
    (forest_model, "fit_tree", "forest.fit_tree", _count_nodes),
    (splitter, "scan_sorted", "forest.scan_sorted", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self._open.pop()
        self.spans[idx][2] = perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for module, attr, name, count in TARGETS:
                fn = getattr(module, attr)  # AttributeError names a renamed target
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, count))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def per_layer(self) -> dict[str, float]:
        """Totals over every span recorded, keyed by per-layer metric name."""
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start

        def self_time(prefix: str) -> float:
            return sum(
                (end - start) - child_time[i]
                for i, (name, start, end, _) in enumerate(self.spans)
                if name.startswith(prefix)
            )

        def under_train(*names: str) -> float:
            return sum(
                end - start
                for name, start, end, parent in self.spans
                if name in names and parent >= 0 and self.spans[parent][0] == "autoencoder.train"
            )

        out = {
            f"{name}.s": total[name]
            for name in (
                "flow_data.load_csv", "flow_data.write_csv", "flow_data.generate_synthetic",
                "latent.write_latent", "latent.read_latent",
                "preprocess.fit", "preprocess.transform", "preprocess.inverse_transform",
                "autoencoder.encode", "autoencoder.decode", "autoencoder.load_model",
                "neural.backward", "neural.clip_global_norm", "neural.adam_step",
                "eval_metrics.build_report", "eval_metrics.save_row_percent_errors",
                "forest.fit_forest", "forest.scan_sorted", "forest.predict", "classify_eval.score",
            )
        }
        out["flow_data.load_csv.rows"] = self.counts["flow_data.load_csv.rows"]
        out["autoencoder.train.self_s"] = self_time("autoencoder.train")
        out["neural.forward_batch.s"] = under_train("neural.forward_batch")
        out["neural.epoch_eval.s"] = under_train("neural.forward", "neural.huber_loss")
        out["neural.steps"] = calls["neural.adam_step"]
        out["forest.fit_tree.self_s"] = self_time("forest.fit_tree")
        out["forest.scan_sorted.calls"] = calls["forest.scan_sorted"]
        out["forest.nodes"] = self.counts["forest.nodes"]
        scans = calls["forest.scan_sorted"]
        out["forest.scan_useful_ratio"] = self.counts["forest.internal_nodes"] / scans if scans else 0.0
        out["cli.glue_s"] = self_time("cli.")
        return out
