"""In-memory spans around the public calls into the fairseg modules.

The tracer replaces, for the duration of a ``with tracer.installed():``
block, every binding of the listed public functions inside the ``fairseg``
package with a wrapper that records one span (name, start, end, parent)
and, for some calls, an exact count of the work the call was given.  The
library source is not modified: the wrappers live only in the benchmark's
process, and the original bindings are restored when the block ends.

A span's self time is its duration minus the time covered by its direct
children.  Spans never overlap except by nesting (one thread), so the self
times of all spans under one root add up to the root's duration exactly.
"""

import contextlib
import os
import sys
import time
from collections import defaultdict

# fairseg.synthdata.IGNORE_ID; run.py imports this module without fairseg
IGNORE_ID = 65535

ROOT = "bench.body"
SETUP_ROOT = "bench.setup"


def _generate(counts, result, spec):
    train, test = result
    counts["synthdata.images"] += len(train) + len(test)


def _write_bytes(counts, result, samples, path, *args):
    counts["synthdata.io_bytes"] += os.path.getsize(path)


def _read_bytes(counts, result, path):
    counts["synthdata.io_bytes"] += os.path.getsize(path)


def _weight_sizes(params):
    return [a.size for name, a in params.blocks.items() if name.endswith(".W")]


def _forward(counts, result, params, images):
    rows = result[1].x.shape[0]
    counts["model.rows"] += rows
    # matmul FLOPs computed from the shapes: one (rows x in) @ (in x out)
    # product per weight matrix
    counts["model.flops"] += 2 * rows * sum(_weight_sizes(params))


def _backward(counts, result, params, cache, dfeats, dlogits):
    rows = cache.x.shape[0]
    # a weight gradient for every layer, an input gradient for every layer
    # but the first
    first = params.blocks["enc0.W"].size if "enc0.W" in params.blocks else 0
    counts["model.flops"] += 2 * rows * (2 * sum(_weight_sizes(params)) - first)


def _checkpoint(counts, result, path, ckpt):
    counts["model.checkpoints"] += 1
    counts["model.checkpoint_bytes"] += os.path.getsize(path)


def _loss_call(counts, result, *args, **kwargs):
    counts["losses.calls"] += 1


def _cluster_call(counts, result, features, labels, *args, **kwargs):
    counts["losses.calls"] += 1
    counts["losses.cluster_attempted_px"] += int(
        (labels.reshape(-1) != IGNORE_ID).sum()
    )


def _deposit(counts, result, bank, class_id, features):
    counts["prototypes.deposit_rows"] += len(features)


def _pseudo(counts, result, protos, features):
    counts["prototypes.pseudo_label_px"] += len(features)


def _sgd(counts, result, *args, **kwargs):
    counts["trainer.iterations"] += 1


def _evaluate(counts, result, params, samples, *args, **kwargs):
    counts["metrics.eval_images"] += len(samples)


# (module, attribute, count hook, metric that takes the span's self time)
TARGETS = (
    ("synthdata", "generate", _generate, "synthdata.generate_s"),
    ("synthdata", "write_dataset", _write_bytes, "synthdata.io_s"),
    ("synthdata", "read_dataset", _read_bytes, "synthdata.io_s"),
    ("model", "patch_matrix", None, "model.patch_s"),
    ("model", "forward_batch", _forward, "model.forward_s"),
    ("model", "backward_batch", _backward, "model.backward_s"),
    ("model", "save_checkpoint", _checkpoint, "model.checkpoint_s"),
    ("losses", "weighted_ce", _loss_call, "losses.ce_s"),
    ("losses", "cluster_loss", _cluster_call, "losses.cluster_s"),
    ("losses", "cons_loss", _loss_call, "losses.cons_s"),
    ("losses", "distill_loss", _loss_call, "losses.distill_s"),
    ("prototypes", "FeatureBank.deposit_many", _deposit, "prototypes.deposit_s"),
    ("prototypes", "pseudo_label_map", _pseudo, "prototypes.pseudo_label_s"),
    ("prototypes", "update_prototypes", None, "prototypes.refresh_s"),
    ("trainer", "build_effective_labels", None, "trainer.labels_s"),
    ("trainer", "sgd_update", _sgd, "trainer.sgd_s"),
    ("trainer", "run_continual", None, "trainer.self_s"),
    ("trainer", "run_step", None, "trainer.self_s"),
    ("trainer", "enter_step", None, "trainer.self_s"),
    ("metrics", "evaluate_model", _evaluate, "metrics.eval_s"),
)

METRIC_OF = {f"{mod}.{attr}": metric for mod, attr, _, metric in TARGETS}
METRIC_OF[ROOT] = "trace.unattributed_s"


class Tracer:
    """Span recorder; install with ``with tracer.installed():``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []

    def _wrap(self, name, fn, count):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, result, *args, **kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap every binding of each target function in ``package``'s modules.

        Modules that imported a function by name hold their own binding, so
        each module attribute that is the same object is replaced.
        """
        modules = [package] + [
            m for name, m in sorted(sys.modules.items())
            if name.startswith(package.__name__ + ".")
        ]
        undo = []
        try:
            for mod_name, attr, count, _ in TARGETS:
                owner = getattr(package, mod_name)
                *cls_path, fn_name = attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = getattr(owner, fn_name)
                wrapper = self._wrap(f"{mod_name}.{attr}", original, count)
                holders = [owner] if cls_path else [
                    m for m in modules if getattr(m, fn_name, None) is original
                ]
                for holder in holders:
                    undo.append((holder, fn_name, original))
                    setattr(holder, fn_name, wrapper)
            yield self
        finally:
            for holder, fn_name, original in reversed(undo):
                setattr(holder, fn_name, original)

    @contextlib.contextmanager
    def root(self, name=ROOT):
        """One span around a whole body or set-up; calls inside are its children."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()


def root_seconds(spans):
    """Duration of the top-level spans."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def self_times(spans):
    """Self time per span name: duration minus the direct children's durations."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return out


# per-layer metrics in the order they are reported, with their units
UNITS = {
    "synthdata.generate_s": "s", "synthdata.images": "count",
    "synthdata.io_s": "s", "synthdata.io_bytes": "B",
    "model.patch_s": "s", "model.forward_s": "s", "model.backward_s": "s",
    "model.rows": "count", "model.flops": "flop", "model.checkpoint_s": "s",
    "model.checkpoint_bytes": "B", "model.checkpoints": "count",
    "losses.ce_s": "s", "losses.cluster_s": "s", "losses.cons_s": "s",
    "losses.distill_s": "s", "losses.calls_per_iter": "calls/iter",
    "losses.cluster_live_ratio": "ratio",
    "prototypes.deposit_s": "s", "prototypes.deposit_rows": "count",
    "prototypes.pseudo_label_s": "s", "prototypes.pseudo_label_px": "count",
    "prototypes.refresh_s": "s",
    "trainer.labels_s": "s", "trainer.sgd_s": "s", "trainer.iterations": "count",
    "trainer.self_s": "s",
    "metrics.eval_s": "s", "metrics.eval_images": "count", "metrics.miou_all": "ratio",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def layer_metrics(spans, counts):
    """Self times per metric and the exact counts, for one traced body."""
    times = defaultdict(float)
    for name, seconds in self_times(spans).items():
        if name in METRIC_OF:  # the set-up root feeds no metric
            times[METRIC_OF[name]] += seconds
    iterations = counts["trainer.iterations"]
    attempted = counts["losses.cluster_attempted_px"]
    skipped = counts["losses.cluster_skipped_px"]
    derived = {
        "losses.calls_per_iter": counts["losses.calls"] / iterations if iterations else 0.0,
        # 0 where the cluster loss never runs
        "losses.cluster_live_ratio": (
            (attempted - skipped) / attempted if attempted else 0.0
        ),
    }
    out = {}
    for metric, unit in UNITS.items():
        if metric in derived:
            out[metric] = derived[metric]
        elif unit == "s":
            out[metric] = times[metric]
        else:
            out[metric] = counts[metric]
    return out
