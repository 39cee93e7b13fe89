"""Span tracer that wraps degat_kit's public functions from outside the package.

Every public function (a name without a leading underscore, defined in a
``degat_kit`` module) is wrapped at each ``degat_kit`` module attribute that
binds it, so calls made through ``from .x import f`` bindings are seen as
well as calls through module attributes. Nothing under ``src/`` is edited.

A span is ``(name, start, end, parent, op)``: ``name`` is
``<module>.<function>``, ``parent`` is the index of the enclosing span (or
-1) and ``op`` is the benchmark's op id. Spans are kept in memory and written
by the caller when the run ends.

Hooks compute counts from a call's arguments and result (pairs scored, bytes
written, exact ties). They run on a paused clock: ``now()`` subtracts the time
spent in hooks, so hook work appears in no span and in no op latency. What
remains is the cost of the wrappers themselves, which the benchmark reports
as the tracing overhead.
"""

import ast
import collections
import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time
import weakref

import numpy as np

# Function groups whose outermost calls make up one per-layer metric.
COND_FUNCS = frozenset(
    f"conditioning.{f}"
    for f in (
        "condition_additive", "condition_additive_backward",
        "condition_film", "condition_film_backward",
        "condition_cross_attention", "condition_cross_attention_backward",
    )
)
BIAS_FUNCS = frozenset(
    f"conditioning.{f}"
    for f in ("bucket_bias", "bias_table_gradient", "mlp_bias", "mlp_bias_backward")
)
MLP_FUNCS = frozenset({"conditioning.mlp2_forward", "conditioning.mlp2_backward"})
LOSS_FUNCS = frozenset({"objective.camera_loss", "objective.depth_loss", "objective.depth_loss_backward"})
WRITE_FUNCS = frozenset({"fileio.write_pfm", "fileio.write_pnm", "fileio.write_image"})
READ_FUNCS = frozenset({"fileio.read_pfm", "fileio.read_pnm", "fileio.read_image"})
VALIDATION_FUNCS = frozenset({"numerics.as_matrix", "numerics.as_vector"})

# CheckResult names of run_property_suite, one metric each.
PROPERTY_CHECKS = (
    "row_stochastic", "convex_hull", "norm_bound", "elu_nonexpansive",
    "permutation_equivariance", "sparse_dense", "gradient_fidelity",
    "optimal_confidence",
)

PER_LAYER = (
    ("graph.build_ms", "ms"),
    ("graph.calls", "count"),
    ("graph.pairs", "count"),
    ("graph.kept_ratio", "ratio"),
    ("graph.tie_rows_share", "ratio"),
    ("degat.fwd_self_ms", "ms"),
    ("degat.bwd_ms", "ms"),
    ("degat.edges", "count"),
    ("degat.pair_tensor_mb", "MB"),
    ("degat.bias_only_fwd_share", "ratio"),
    ("toy_model.fwd_self_ms", "ms"),
    ("toy_model.bwd_self_ms", "ms"),
    ("toy_model.sgd_ms", "ms"),
    ("numerics.validations", "count"),
    ("numerics.self_ms", "ms"),
    ("conditioning.cond_ms", "ms"),
    ("conditioning.bias_ms", "ms"),
    ("conditioning.ffn_ms", "ms"),
    ("objective.loss_ms", "ms"),
    ("metrics.ssim_ms", "ms"),
    ("metrics.psnr_ms", "ms"),
    ("metrics.pixels", "count"),
    ("geometry.pointcloud_ms", "ms"),
    ("geometry.write_ply_ms", "ms"),
    ("geometry.ply_bytes", "bytes"),
    ("fileio.write_ms", "ms"),
    ("fileio.read_ms", "ms"),
    ("fileio.bytes", "bytes"),
    ("harness.load_checkpoint_ms", "ms"),
    ("harness.evaluate_self_ms", "ms"),
    *((f"properties.check_ms.{name}", "ms") for name in PROPERTY_CHECKS),
    ("trace.calls_per_op", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("input.tokens_per_op", "count"),
    ("input.dup_token_share", "ratio"),
)


def _package_modules(package):
    return [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]


class Tracer:
    """Installs span-recording wrappers and turns spans into per-layer metrics."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.op = -1
        self.counts = collections.Counter()
        self.hook_errors = 0
        self._stack = []
        self._excluded = 0.0
        self._patches = []
        self._fwd_caches = {}  # id(DeGatCache) -> (weakref, output discarded?)

    def now(self):
        """Clock that stops while hooks run."""
        return time.perf_counter() - self._excluded

    # -- installation -----------------------------------------------------

    def install(self):
        modules = _package_modules(self.package)
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and obj.__name__ == attr
                ):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        for mod in modules + [self.package]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patches.append((mod, attr, obj))
        return self

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name):
        hook = _HOOKS.get(name)
        if hook is None and name.startswith("properties.check_"):
            hook = _hook_property_check
        signature = inspect.signature(fn)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.now()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if hook is not None:
                t0 = time.perf_counter()
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, spans[idx], bound.arguments, result, sys._getframe(1))
                except (AttributeError, KeyError, TypeError, ValueError):
                    # a hook written for another signature must not fail the op
                    self.hook_errors += 1
                self._excluded += time.perf_counter() - t0
            return result

        return wrapper

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self, n_ops, tokens_per_op=None):
        """Per-op averages over all recorded spans; unreached layers read 0."""
        spans = self.spans
        n = len(spans)
        names = [s[0] for s in spans]
        parents = np.fromiter((s[3] for s in spans), dtype=np.int64, count=n)
        dur = np.fromiter((s[2] - s[1] for s in spans), dtype=np.float64, count=n)
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child

        by_name = collections.defaultdict(list)
        for i, nm in enumerate(names):
            by_name[nm].append(i)

        def total(name, values=dur):
            return float(values[by_name[name]].sum()) if name in by_name else 0.0

        def outermost(group, excluded=frozenset()):
            """Summed time of calls in ``group`` nested in no other call of
            ``group`` and in no call of ``excluded``."""
            out = 0.0
            for nm in group:
                for i in by_name.get(nm, ()):
                    p = parents[i]
                    while p >= 0 and names[p] not in group and names[p] not in excluded:
                        p = parents[p]
                    if p < 0:
                        out += dur[i]
            return out

        c = self.counts
        per = 1.0 / max(n_ops, 1)
        ms = 1e3 * per
        numerics_self = sum(
            float(self_time[idx].sum()) for nm, idx in by_name.items()
            if nm.startswith("numerics.")
        )
        m = {
            "graph.build_ms": total("graph.build_knn_graph") * ms,
            "graph.calls": len(by_name.get("graph.build_knn_graph", ())) * per,
            "graph.pairs": c["graph.pairs"] * per,
            "graph.kept_ratio": _ratio(c["graph.kept"], c["graph.pairs"]),
            "graph.tie_rows_share": _ratio(c["graph.tie_rows"], c["graph.rows"]),
            "degat.fwd_self_ms": total("degat.degat_forward", self_time) * ms,
            "degat.bwd_ms": total("degat.degat_backward") * ms,
            "degat.edges": c["degat.edges"] * per,
            "degat.pair_tensor_mb": c["degat.pair_tensor_bytes"] * per / 1e6,
            "degat.bias_only_fwd_share": _ratio(
                c["degat.bias_only_fwd"], len(by_name.get("degat.degat_forward", ()))
            ),
            "toy_model.fwd_self_ms": total("toy_model.forward", self_time) * ms,
            "toy_model.bwd_self_ms": total("toy_model.backward", self_time) * ms,
            "toy_model.sgd_ms": total("toy_model.sgd_step") * ms,
            "numerics.validations": sum(len(by_name.get(f, ())) for f in VALIDATION_FUNCS) * per,
            "numerics.self_ms": numerics_self * ms,
            "conditioning.cond_ms": outermost(COND_FUNCS) * ms,
            "conditioning.bias_ms": outermost(BIAS_FUNCS) * ms,
            "conditioning.ffn_ms": outermost(MLP_FUNCS, COND_FUNCS | BIAS_FUNCS) * ms,
            "objective.loss_ms": outermost(LOSS_FUNCS) * ms,
            "metrics.ssim_ms": total("metrics.ssim") * ms,
            "metrics.psnr_ms": total("metrics.psnr") * ms,
            "metrics.pixels": c["metrics.pixels"] * per,
            "geometry.pointcloud_ms": total("geometry.depth_to_pointcloud") * ms,
            "geometry.write_ply_ms": total("geometry.write_ply") * ms,
            "geometry.ply_bytes": c["geometry.ply_bytes"] * per,
            "fileio.write_ms": outermost(WRITE_FUNCS) * ms,
            "fileio.read_ms": outermost(READ_FUNCS) * ms,
            "fileio.bytes": c["fileio.bytes"] * per,
            "harness.load_checkpoint_ms": total("harness.load_checkpoint") * ms,
            "harness.evaluate_self_ms": total("harness.evaluate", self_time) * ms,
            "trace.calls_per_op": n * per,
            "input.tokens_per_op": (
                c["graph.rows"] * per if tokens_per_op is None else tokens_per_op
            ),
            "input.dup_token_share": _ratio(c["graph.dup_rows"], c["graph.rows"]),
        }
        for name in PROPERTY_CHECKS:
            key = f"properties.check_ms.{name}"
            m[key] = c[key] * ms
        return m

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# name start_s end_s parent op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name} {start:.9f} {end:.9f} {parent} {op}\n")


def _ratio(num, den):
    return num / den if den else 0.0


# -- hooks: counts measured where the work happens ---------------------------


def _features(tokens):
    x = tokens.features if hasattr(tokens, "features") else tokens
    return np.asarray(x, dtype=np.float64)


def _knn_keys(x, metric):
    """The ordering key build_knn_graph sorts on (lower is better), self at inf."""
    if metric == "cosine":
        norms = np.linalg.norm(x, axis=1)
        xn = x / np.where(norms == 0.0, 1.0, norms)[:, None]
        key = -(xn @ xn.T)
    else:
        sq = np.sum(x * x, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
        key = np.sqrt(np.maximum(d2, 0.0))
    np.fill_diagonal(key, np.inf)
    return key


def _hook_build_knn_graph(tr, span, args, result, caller):
    x = _features(args["tokens"])
    n, k = x.shape[0], int(args["k"])
    key = _knn_keys(x, args["metric"])
    kth = np.partition(key, k - 1, axis=1)[:, k - 1]
    _, inverse, counts = np.unique(x, axis=0, return_inverse=True, return_counts=True)
    c = tr.counts
    c["graph.rows"] += n
    c["graph.pairs"] += n * n
    c["graph.kept"] += n * k
    c["graph.tie_rows"] += int(np.count_nonzero((key == kth[:, None]).sum(axis=1) > 1))
    c["graph.dup_rows"] += int(np.count_nonzero(counts[inverse.ravel()] > 1))


@functools.lru_cache(maxsize=None)
def _discards_output(filename, lineno):
    """True when the statement at ``lineno`` unpacks a call into ``_, ...``."""
    try:
        with open(filename, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
    except (OSError, SyntaxError):
        return False
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and node.lineno <= lineno <= node.end_lineno
            and isinstance(node.value, ast.Call)
        ):
            target = node.targets[0]
            return (
                isinstance(target, ast.Tuple)
                and isinstance(target.elts[0], ast.Name)
                and target.elts[0].id == "_"
            )
    return False


def _hook_degat_forward(tr, span, args, result, caller):
    _, cache = result
    n, k = cache.graph.neighbors.shape
    c = tr.counts
    c["degat.edges"] += n * k
    c["degat.pair_tensor_bytes"] += n * k * 2 * cache.x.shape[1] * 8
    discarded = _discards_output(caller.f_code.co_filename, caller.f_lineno)
    tr._fwd_caches[id(cache)] = (weakref.ref(cache), discarded)


def _hook_affinity_to_log_bias(tr, span, args, result, caller):
    """A forward whose tokens were thrown away and whose cache feeds the bias."""
    cache = args["cache"]
    entry = tr._fwd_caches.get(id(cache))
    if entry is not None and entry[0]() is cache and entry[1]:
        tr.counts["degat.bias_only_fwd"] += 1
        tr._fwd_caches[id(cache)] = (entry[0], False)


def _hook_pixels(tr, span, args, result, caller):
    tr.counts["metrics.pixels"] += np.asarray(args["a"]).size


def _hook_ply(tr, span, args, result, caller):
    tr.counts["geometry.ply_bytes"] += os.path.getsize(args["path"])


def _hook_file_bytes(tr, span, args, result, caller):
    tr.counts["fileio.bytes"] += os.path.getsize(args["path"])


def _hook_property_check(tr, span, args, result, caller):
    name = getattr(result, "name", None)
    if name in PROPERTY_CHECKS:
        tr.counts[f"properties.check_ms.{name}"] += span[2] - span[1]


_HOOKS = {
    "graph.build_knn_graph": _hook_build_knn_graph,
    "degat.degat_forward": _hook_degat_forward,
    "degat.affinity_to_log_bias": _hook_affinity_to_log_bias,
    "metrics.ssim": _hook_pixels,
    "metrics.psnr": _hook_pixels,
    "geometry.write_ply": _hook_ply,
    "fileio.write_pfm": _hook_file_bytes,
    "fileio.write_pnm": _hook_file_bytes,
    "fileio.read_pfm": _hook_file_bytes,
    "fileio.read_pnm": _hook_file_bytes,
}
