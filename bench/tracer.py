"""Span recorder that wraps decayspace's public functions from outside.

install() replaces every public function of the layer modules with a
recording wrapper, wherever any decayspace module binds it: a module
that imported a function by name (analysis imports
max_independent_set, cli imports from spaces) calls the wrapper too,
because the binding is matched by identity, not by name. The program
itself is not edited.

Each span holds (id, parent, op, layer, name, start, end); op is the id
of the benchmark's own root span around one operation, so every span of
an operation shares it. Spans stay in memory until write() at exit.
Functions named below that a layer no longer has (or a layer module
that is gone), and counters whose call no longer fits, are listed in
`missing` and the run goes on: renaming or merging a function loses
its metric but never stops the benchmark.

summarize() turns the spans and the argument/return counters into the
per-layer metrics. Every count is derived from call arguments and
return values only, so it repeats exactly for a seed.
"""

import contextlib
import functools
import importlib
import inspect
import sys
import time
import tracemalloc

LAYERS = ("cli", "io", "spaces", "links", "capacity", "analysis", "search", "generators")

# metric -> functions whose outermost calls it times (inclusive);
# io.dump_s covers the set-up's input files and the CLI's reports
TIMED = {
    "io.load_s": ("io", ("load_space", "load_system", "load_graph")),
    "io.dump_s": ("io", ("save_space", "save_system", "dumps_canonical")),
    "spaces.zeta_s": ("spaces", ("compute_zeta",)),
    "spaces.phi_s": ("spaces", ("compute_phi",)),
    "spaces.triangle_s": ("spaces", ("triangle_violation",)),
    "links.affectance_s": ("links", ("affectance_matrix", "affectance", "aggregate_affectance")),
    "links.distance_s": ("links", ("link_distance_matrix", "link_distance")),
    "links.feasible_s": ("links", ("is_feasible", "sinr_values")),
    "links.separation_s": ("links", ("check_separation", "check_separation_set",
                                     "_separation_violation")),
    "capacity.greedy_s": ("capacity", ("capacity_uniform",)),
    "capacity.partition_s": ("capacity", ("signal_strengthen", "separation_strengthen")),
    "capacity.oracle_s": ("capacity", ("capacity_oracle",)),
    "analysis.assouad_s": ("analysis", ("assouad_estimate",)),
    "analysis.fading_s": ("analysis", ("fading_parameter",)),
    "search.mis_s": ("search", ("max_independent_set",)),
    "search.mwis_s": ("search", ("max_weight_independent_set",)),
}

# layers whose whole time (outermost spans of the layer) is a metric
LAYER_TOTAL = {"generators.s": "generators"}
# layers whose self time is a metric
LAYER_SELF = {"cli.self_s": "cli", "analysis.self_s": "analysis"}
# functions wrapped with a tracemalloc window: metric -> (layer, name)
PEAK = {
    "spaces.zeta_peak_mb": ("spaces", "compute_zeta"),
    "spaces.phi_peak_mb": ("spaces", "compute_phi"),
}

# spaces.triples is computed, n(n-1)(n-2) per compute_zeta/compute_phi
# call from the argument's size, not counted inside the kernels
COUNTS = (
    "io.report_bytes",
    "spaces.triples",
    "capacity.greedy_calls",
    "capacity.partition_classes",
    "analysis.packing_calls",
    "search.mis_calls",
    "search.mwis_calls",
)


def _triples(space):
    n = int(space.n)
    return n * (n - 1) * (n - 2)


def _count_hooks(tracer):
    """(layer, name) -> hook(fn, args, kwargs, result, parent_layer)."""
    def add(key, amount=1):
        c = tracer.counts.setdefault(tracer.op, {})
        c[key] = c.get(key, 0) + amount

    def space_arg(args, kwargs):
        return args[0] if args else kwargs["space"]

    def greedy(fn, args, kwargs, res, parent):
        add("capacity.greedy_calls")
        add("capacity.selected", len(res.selected))
        add("capacity.intermediate", len(res.intermediate))

    def search(kind, exact_of):
        def hook(fn, args, kwargs, res, parent):
            add("search.%s_calls" % kind)
            add("search.inexact_calls", 0 if exact_of(res) else 1)
        return hook

    def report(fn, args, kwargs, res, parent):
        # bytes of the CLI report without its timing block, which is the
        # only part that changes between runs
        obj = args[0]
        if parent == "cli" and isinstance(obj, dict):
            add("io.report_bytes", len(fn({k: v for k, v in obj.items() if k != "timing"})))

    return {
        ("spaces", "compute_zeta"): lambda f, a, k, r, p: add("spaces.triples", _triples(space_arg(a, k))),
        ("spaces", "compute_phi"): lambda f, a, k, r, p: add("spaces.triples", _triples(space_arg(a, k))),
        ("capacity", "capacity_uniform"): greedy,
        ("capacity", "signal_strengthen"): lambda f, a, k, r, p: add("capacity.partition_classes", len(r.classes)),
        ("capacity", "separation_strengthen"): lambda f, a, k, r, p: add("capacity.partition_classes", len(r.classes)),
        ("analysis", "packing_number"): lambda f, a, k, r, p: add("analysis.packing_calls"),
        ("search", "max_independent_set"): search("mis", lambda r: r[1]),
        ("search", "max_weight_independent_set"): search("mwis", lambda r: r[2]),
        ("io", "dumps_canonical"): report,
    }


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.peaks = {}
        self.missing = []
        self.op = None

    # recording -----------------------------------------------------

    def _enter(self, layer, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([idx, parent, self.op, layer, name, time.perf_counter(), None])
        self.stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][6] = time.perf_counter()
        self.stack.pop()

    def parent_layer(self):
        return self.spans[self.stack[-1]][3] if self.stack else None

    @contextlib.contextmanager
    def operation(self, name):
        """Root span of one benchmark operation; its id tags every span below."""
        idx = self._enter("bench", name)
        self.spans[idx][2] = idx
        self.op = idx
        try:
            yield idx
        finally:
            self._exit(idx)
            self.op = None

    def _wrap(self, layer, name, fn, hook, peak_key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.parent_layer()
            if peak_key is not None:
                tracemalloc.start()
            idx = tracer._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
                if peak_key is not None:
                    peak = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
                    tracemalloc.stop()
                    key = (tracer.op, peak_key)
                    tracer.peaks[key] = max(tracer.peaks.get(key, 0.0), peak)
            if hook is not None:
                try:
                    hook(fn, args, kwargs, result, parent)
                except (AttributeError, TypeError, IndexError, KeyError):
                    # the call or its result changed shape: lose the count,
                    # never the program's answer
                    if "%s.%s" % (layer, name) not in tracer.missing:
                        tracer.missing.append("%s.%s" % (layer, name))
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    def install(self):
        """Wrap every public function of each layer, wherever it is bound."""
        hooks = _count_hooks(self)
        peak_of = {v: k for k, v in PEAK.items()}
        wanted = {(layer, n) for layer, names in TIMED.values() for n in names}
        wanted |= set(hooks) | set(PEAK.values())
        wrappers = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module("decayspace." + layer)
            except ImportError:
                self.missing += ["%s.%s" % key for key in wanted if key[0] == layer]
                continue
            # every public function, plus the private helpers a metric names
            names = [
                n for n, v in vars(mod).items()
                if inspect.isfunction(v) and v.__module__ == mod.__name__
                and (not n.startswith("_") or (layer, n) in wanted)
            ]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(
                    layer, name, fn, hooks.get((layer, name)), peak_of.get((layer, name))))
            self.missing += ["%s.%s" % key for key in wanted
                             if key[0] == layer and key[1] not in names]
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "decayspace" or modname.startswith("decayspace.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        self.missing.sort()
        return self

    # output --------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tlayer\tname\tstart\tend\n")
            for s in self.spans:
                fh.write("\t".join("" if v is None else str(v) for v in s) + "\n")

    def summarize(self, ops):
        """Per-layer metrics over the spans and counters of the given ops."""
        spans = self.spans
        ops = set(ops)
        mine = [s for s in spans if s[2] in ops]
        metric_of = {(layer, n): m for m, (layer, names) in TIMED.items() for n in names}
        out = dict.fromkeys(list(TIMED) + list(LAYER_TOTAL) + list(LAYER_SELF), 0.0)
        child_time = {}
        for s in mine:
            if s[1] is not None:
                child_time[s[1]] = child_time.get(s[1], 0.0) + s[6] - s[5]
        for s in mine:
            dur = s[6] - s[5]
            above = []
            p = s[1]
            while p is not None:
                above.append(spans[p])
                p = spans[p][1]
            metric = metric_of.get((s[3], s[4]))
            if metric and not any(metric_of.get((a[3], a[4])) == metric for a in above):
                out[metric] += dur
            for key, layer in LAYER_TOTAL.items():
                if s[3] == layer and not any(a[3] == layer for a in above):
                    out[key] += dur
            for key, layer in LAYER_SELF.items():
                if s[3] == layer:
                    out[key] += dur - child_time.get(s[0], 0.0)
        c = {}
        for op in ops:
            for key, val in self.counts.get(op, {}).items():
                c[key] = c.get(key, 0) + val
        for metric in PEAK:
            out[metric] = max([self.peaks.get((op, metric), 0.0) for op in ops] or [0.0])
        for key in COUNTS:
            out[key] = c.get(key, 0)
        calls = c.get("search.mis_calls", 0) + c.get("search.mwis_calls", 0)
        out["search.inexact_frac"] = c.get("search.inexact_calls", 0) / calls if calls else 0.0
        inter = c.get("capacity.intermediate", 0)
        out["capacity.keep_ratio"] = c.get("capacity.selected", 0) / inter if inter else 0.0
        out["trace.missing"] = len(self.missing)
        return out
