"""Tracing for the posetgeo layers: wrappers for spans and counts, and
a stack sampler for time.

``Tracer`` wraps each layer's public functions at the places their
callers look them up: the class attribute for methods, and every
``posetgeo`` module global (or module-level dict entry, such as the
suite table) that holds the original function.  Nothing inside the
package changes; ``uninstall`` puts every original back.  Each wrapped
call is aggregated per (function, parent) as [calls, total_s, self_s,
raised].  Boundary functions also record a span (name, start, end,
parent span, command id); the hot per-call functions (``Poset.leq``,
``Projector.forward``/``backward``, ``projection_code`` ...) run
millions of times, so they keep aggregates only, and only when the
tracer is built with ``hot=True``.

Wrapping millions of calls costs more time than the calls themselves,
and that cost lands in the callers' self time.  So the traced run times
the layers with ``Sampler`` in a pass that has only the span wrappers,
and counts calls in a separate pass with every wrapper.

A function that a later version of the package renames or removes is
skipped, and its metrics read 0.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from collections import Counter

# (layer, attribute path, records spans).  The layer is the posetgeo
# module and the metric prefix; methods are named without their class.
SPAN, HOT = True, False
TARGETS = [
    ("cli", ("main",), SPAN),
    ("cli", ("cmd_generate",), SPAN),
    ("cli", ("cmd_classify",), SPAN),
    ("cli", ("cmd_verify",), SPAN),
    ("cli", ("cmd_export",), SPAN),
    ("verify", ("run_suite",), SPAN),
    ("verify", ("suite_census",), SPAN),
    ("verify", ("suite_pythagoras",), SPAN),
    ("verify", ("suite_simplex",), SPAN),
    ("verify", ("suite_subspaces",), SPAN),
    ("verify", ("suite_parallel",), SPAN),
    ("verify", ("suite_dot",), SPAN),
    ("verify", ("suite_wedge",), SPAN),
    ("verify", ("suite_geoproduct",), SPAN),
    ("serialize", ("load_json",), SPAN),
    ("serialize", ("dump_json",), SPAN),
    ("serialize", ("poset_from_doc",), SPAN),
    ("serialize", ("poset_to_doc",), SPAN),
    ("serialize", ("to_dot",), SPAN),
    ("generators", ("build_metric_poset",), SPAN),
    ("generators", ("random_dag",), SPAN),
    ("generators", ("lattice_1p1",), SPAN),
    ("generators", ("grid_config",), SPAN),
    ("generators", ("dotprod_config",), SPAN),
    ("generators", ("pythagoras_config",), SPAN),
    ("generators", ("collinear_config",), SPAN),
    ("generators", ("simplex_config",), SPAN),
    ("poset", ("Poset", "from_closure"), SPAN),
    ("poset", ("Poset", "cover_pairs"), SPAN),
    ("poset", ("Poset", "add_influence"), HOT),
    ("poset", ("Poset", "leq"), HOT),
    ("projection", ("Projector", "__init__"), HOT),
    ("projection", ("Projector", "forward"), HOT),
    ("projection", ("Projector", "backward"), HOT),
    ("collinearity", ("census",), SPAN),
    ("collinearity", ("chains_properly_collinear",), HOT),
    ("collinearity", ("side_of",), HOT),
    ("collinearity", ("classify_collinearity",), HOT),
    ("collinearity", ("projection_code",), HOT),
    ("coordination", ("pythagoras_check",), SPAN),
    ("coordination", ("simplex_table",), SPAN),
    ("coordination", ("check_orthogonal_subspaces",), SPAN),
    ("coordination", ("are_coordinated",), HOT),
    ("fence", ("validate_fence",), SPAN),
    ("fence", ("validate_grid",), SPAN),
    ("fence", ("parallel_postulate_check",), HOT),
    ("fence", ("dot_product",), HOT),
    ("fence", ("wedge_product",), HOT),
    ("fence", ("geometric_identity_check",), HOT),
    ("fence", ("chain_pair_distance",), HOT),
]

LAYERS = sorted({layer for layer, _, _ in TARGETS})
MAX_SPANS = 200_000


def metric_name(layer: str, path: tuple[str, ...]) -> str:
    """``projection.forward`` for ``Projector.forward``; suites drop
    their ``suite_`` prefix; the Projector constructor is
    ``projection.Projector``."""
    attr = path[-1]
    if attr == "__init__":
        attr = path[0]
    return f"{layer}.{attr.removeprefix('suite_')}"


class Tracer:
    """Frame stack, per-parent aggregates, spans and counters of one
    traced stretch of work."""

    def __init__(self, hot: bool = True) -> None:
        self.hot = hot
        # frame: [name, child_s, span index its children record as parent]
        self.stack: list[list] = [["bench", 0.0, -1]]
        self.agg: dict[tuple[str, str], list] = {}
        self.spans: list = []
        self.spans_dropped = 0
        self.cmd = 0
        self.counters: dict[str, int] = {}
        self.memo_seen: dict[int, set] = {}
        self.grid_layouts: set = set()
        self._undo: list = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "posetgeo" or name.startswith("posetgeo."))
        ]
        hooks = self._hooks()
        for layer, path, span in TARGETS:
            if not span and not self.hot:
                continue
            mod = sys.modules.get(f"posetgeo.{layer}")
            if mod is None:
                continue
            name = metric_name(layer, path)
            hook = hooks.get(name)
            if len(path) == 2:
                self._patch_method(mod, path, name, span, hook)
            else:
                self._patch_function(modules, mod, path[0], name, span, hook)

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def _patch_method(self, mod, path, name, span, hook) -> None:
        cls = getattr(mod, path[0], None)
        raw = getattr(cls, "__dict__", {}).get(path[1])
        if raw is None:
            return
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrap(name, raw.__func__, span, hook))
        elif callable(raw):
            new = self._wrap(name, raw, span, hook)
        else:
            return
        setattr(cls, path[1], new)
        self._undo.append(lambda: setattr(cls, path[1], raw))

    def _patch_function(self, modules, mod, attr, name, span, hook) -> None:
        orig = getattr(mod, attr, None)
        if not callable(orig):
            return
        wrapper = self._wrap(name, orig, span, hook)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapper)
                    self._undo.append(lambda m=m, key=key: setattr(m, key, orig))
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is orig:
                            val[k] = wrapper
                            self._undo.append(
                                lambda d=val, k=k: d.__setitem__(k, orig)
                            )

    # -- the wrapper ----------------------------------------------------

    def _wrap(self, name, fn, record_span, hook):
        stack = self.stack
        agg = self.agg
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            own = -1
            if record_span:
                if len(spans) < MAX_SPANS:
                    own = len(spans)
                    spans.append(None)
                else:
                    tracer.spans_dropped += 1
            # children of an aggregated-only call hang off its nearest span
            frame = [name, 0.0, own if own >= 0 else parent[2]]
            stack.append(frame)
            raised = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                key = (name, parent[0])
                a = agg.get(key)
                if a is None:
                    a = agg[key] = [0, 0.0, 0.0, 0]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[1]
                a[3] += raised
                if own >= 0:
                    spans[own] = (name, t0, t1, parent[2], tracer.cmd)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counters fed from call arguments and results ---------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _hooks(self) -> dict:
        seen = self.memo_seen

        def projector_created(args, kwargs, result):
            if args:
                seen[id(args[0])] = set()

        def memo(direction):
            def hook(args, kwargs, result):
                if len(args) < 3:
                    return
                pr, x, chain = args[0], args[1], args[2]
                keys = seen.setdefault(id(pr), set())
                key = (direction, getattr(chain, "chain_id", id(chain)), x)
                if key in keys:
                    self._count("projection.memo_hits")
                else:
                    keys.add(key)
            return hook

        def metric_poset_built(args, kwargs, result):
            poset = getattr(result, "poset", None)
            if poset is not None:
                self._count("generators.events_built", len(poset))

        def grid_validated(args, kwargs, result):
            try:
                key = (result.shape, result.row_spacing, result.col_spacing)
            except AttributeError:
                key = id(result)
            self.grid_layouts.add(key)

        def bytes_written(args, kwargs, result):
            fp = args[2] if len(args) > 2 else kwargs.get("fp")
            try:
                self._count("serialize.doc_bytes", fp.tell())
            except (AttributeError, OSError, ValueError):
                pass

        def bytes_read(args, kwargs, result):
            fp = args[0] if args else kwargs.get("fp")
            try:
                self._count("serialize.doc_bytes", fp.tell())
            except (AttributeError, OSError, ValueError):
                pass

        def dot_written(args, kwargs, result):
            if isinstance(result, str):
                self._count("serialize.doc_bytes", len(result.encode("utf-8")))

        return {
            "serialize.dump_json": bytes_written,
            "serialize.load_json": bytes_read,
            "serialize.to_dot": dot_written,
            "projection.Projector": projector_created,
            "projection.forward": memo("fwd"),
            "projection.backward": memo("bwd"),
            "generators.build_metric_poset": metric_poset_built,
            "fence.validate_grid": grid_validated,
        }

    # -- results --------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per function: [calls, total_s, self_s, raised], summed over parents."""
        out: dict[str, list] = {}
        for (name, _parent), (calls, total, self_s, raised) in self.agg.items():
            t = out.setdefault(name, [0, 0.0, 0.0, 0])
            t[0] += calls
            t[1] += total
            t[2] += self_s
            t[3] += raised
        return out

    def by_parent(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "calls": a[0], "total_s": a[1],
             "self_s": a[2], "raised": a[3]}
            for (name, parent), a in sorted(self.agg.items())
        ]

    def span_records(self) -> list[dict]:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "cmd": s[4]}
            for s in self.spans
            if s is not None
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Sampler:
    """Self and inclusive time per posetgeo function, from SIGPROF
    samples of the Python stack taken every ``interval`` s of CPU time.

    A sample's self time goes to the innermost frame whose code lies in
    the package (so standard-library work counts for the posetgeo
    function that asked for it) and to ``bench`` when there is none.
    Sampling costs little, so it runs in a pass with no per-call
    wrappers, and its shares are undistorted by them.
    """

    def __init__(self, package_dir: str, interval: float = 0.001) -> None:
        self.prefix = os.path.join(package_dir, "")
        self.interval = interval
        self.self_samples: Counter = Counter()
        self.incl_samples: Counter = Counter()
        self.samples = 0
        self._names: dict = {}

    def _name(self, code) -> str | None:
        try:
            return self._names[code]
        except KeyError:
            pass
        name = None
        if code.co_filename.startswith(self.prefix):
            module = code.co_filename[len(self.prefix):].removesuffix(".py")
            name = f"{module.replace(os.sep, '.')}.{code.co_name.removeprefix('suite_')}"
        self._names[code] = name
        return name

    def _sample(self, signum, frame) -> None:
        self.samples += 1
        innermost = True
        seen = set()
        while frame is not None:
            name = self._name(frame.f_code)
            if name is not None:
                if innermost:
                    self.self_samples[name] += 1
                    innermost = False
                if name not in seen:
                    seen.add(name)
                    self.incl_samples[name] += 1
            frame = frame.f_back
        if innermost:
            self.self_samples["bench"] += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def layer_metrics(
    counted: Tracer, sampler: Sampler, untraced_s: float, sampled_s: float,
    traced_s: float,
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit).

    Calls, counters and ratios come from the pass with per-call wrappers
    (``counted``).  Times come from the sampled pass: a function's share
    of the samples times that pass's wall time.
    """
    tot = counted.totals()
    c = counted.counters

    def calls(name):
        return tot.get(name, [0])[0]

    def share_s(samples):
        return _ratio(samples, sampler.samples) * sampled_s

    m: dict[str, tuple[float, str]] = {}
    for name in ("projection.forward", "projection.backward", "poset.leq",
                 "collinearity.projection_code", "poset.add_influence",
                 "poset.from_closure", "poset.cover_pairs",
                 "generators.build_metric_poset", "fence.validate_fence",
                 "fence.validate_grid", "coordination.are_coordinated"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("poset.add_influence", "poset.from_closure", "poset.cover_pairs",
                 "serialize.poset_from_doc", "serialize.poset_to_doc",
                 "serialize.to_dot", "collinearity.census",
                 "generators.build_metric_poset", "generators.random_dag",
                 "fence.validate_fence", "fence.validate_grid",
                 "coordination.are_coordinated", "verify.census",
                 "verify.pythagoras", "verify.simplex", "verify.subspaces",
                 "verify.parallel", "verify.dot", "verify.wedge", "verify.geoproduct"):
        m[f"{name}.s"] = (share_s(sampler.incl_samples[name]), "s")
    m["collinearity.projection_code.self_s"] = (
        share_s(sampler.self_samples["collinearity.projection_code"]), "s")
    m["projection.memo_hit_ratio"] = (
        _ratio(c.get("projection.memo_hits", 0),
               calls("projection.forward") + calls("projection.backward")), "ratio")
    m["projection.projectors_created"] = (calls("projection.Projector"), "count")
    code_calls = calls("collinearity.projection_code")
    raised = tot.get("collinearity.projection_code", [0, 0, 0, 0])[3]
    m["collinearity.defined_ratio"] = (_ratio(code_calls - raised, code_calls), "ratio")
    m["serialize.doc_bytes"] = (c.get("serialize.doc_bytes", 0), "B")
    m["generators.events_built"] = (c.get("generators.events_built", 0), "count")
    m["fence.grid_distinct_ratio"] = (
        _ratio(len(counted.grid_layouts), calls("fence.validate_grid")), "ratio")
    layer_samples = Counter()
    for name, n in sampler.self_samples.items():
        layer_samples[name.split(".", 1)[0]] += n
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (share_s(layer_samples[layer]), "s")
    m["trace.accounted_ratio"] = (
        _ratio(sampler.samples - layer_samples["bench"], sampler.samples), "ratio")
    m["trace.samples"] = (sampler.samples, "count")
    m["trace.untraced_wall_s"] = (untraced_s, "s")
    m["trace.sampled_wall_s"] = (sampled_s, "s")
    m["trace.traced_wall_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return m
