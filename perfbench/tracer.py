"""Outside-in tracing of the altmax layers.

`Tracer.install()` replaces the public functions of every layer module, the
model-contract methods of every model class, the wavelet design methods and
`ExperimentReport.write` with wrappers that record one span per call.  Nothing
under `src/` changes.  Because `harness`, `alternation` and `singleindex`
import names with `from .x import y`, a function is replaced in every altmax
module that holds it, not only where it is defined.

A span is (name, start, end, parent, replication id), kept in memory until the
run ends.  The replication id is the `spawn_key` of the `SeedSequence` that
reaches `toy.simulate` or `singleindex.generate` (set earlier, to the same
value, by `harness.derive_seed`); it is None outside replications.  The
tracer assumes one worker thread.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("statcore", "modelapi", "alternation", "bounds", "toy", "wavelet",
          "singleindex", "harness")
CONTRACT = ("evaluate", "gradient", "hessian", "eta_argmax", "theta_argmax")
MODEL_EXTRA = ("information_at_truth", "expected_evaluate", "default_start")
BASIS_METHODS = ("design", "ddesign", "d2design", "synth")
# harness calls that are not part of any replication
PHASES = ("harness.run_wilks_fisher", "harness.probe_delta", "harness.build_context",
          "harness.aggregate_wilks_fisher", "harness.report_write",
          "harness.derive_rng")


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


class Tracer:
    def __init__(self):
        self.names = []       # span name index per span
        self.starts = []
        self.ends = []
        self.parents = []     # -1 for a root span
        self.reps = []
        self.name_list = []
        self._name_ids = {}
        self._stack = []
        self.rep = None
        self.counters = defaultdict(int)
        self._grid_starts = {}

    # -- recording ----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.name_list)
            self.name_list.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn, pre=None, post=None):
        nid = self._name_id(name)
        names, starts, ends = self.names, self.starts, self.ends
        parents, reps, stack = self.parents, self.reps, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            reps.append(self.rep)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        return traced

    # -- hooks that read replication ids and layer-specific counts -----------

    def _hooks(self, name):
        c = self.counters
        if name == "harness.derive_seed":
            def pre(args, kwargs):
                self.rep = int(_arg(args, kwargs, 1, "index"))
            return pre, None
        if name in ("toy.simulate", "singleindex.generate"):
            pos = 2 if name == "toy.simulate" else 6

            def pre(args, kwargs):
                key = getattr(_arg(args, kwargs, pos, "seed"), "spawn_key", None)
                if key:
                    self.rep = int(key[0])
            return pre, None
        if name in PHASES:
            def pre(args, kwargs):
                self.rep = None
            return pre, None
        if name in ("wavelet.design", "wavelet.ddesign", "wavelet.d2design"):
            key = name + ".rows"

            def post(args, kwargs, result):
                c[key] += len(result)
            return None, post
        if name == "singleindex.grid_init":
            def post(args, kwargs, result):
                c["singleindex.grid_init.points"] += int(_arg(args, kwargs, 2, "N"))
                self._grid_starts[id(result[0])] = result[0]
            return None, post
        if name == "alternation.run":
            def post(args, kwargs, result):
                c["alternation.steps"] += len(result.records) - 1
                c["alternation.stop." + result.stop_reason] += 1
                start = _arg(args, kwargs, 1, "start")
                if self._grid_starts.pop(id(start), None) is start:
                    c["singleindex.grid_init.useful"] += 1
            return None, post
        return None, None

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every traced callable in every altmax module that holds it."""
        import altmax  # noqa: F401  (loads every layer module)

        mods = {n: m for n, m in sys.modules.items()
                if n == "altmax" or n.startswith("altmax.")}
        wrappers = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            mod = mods["altmax." + layer]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj, *self._hooks(name)))
            for cls in [o for o in vars(mod).values() if inspect.isclass(o)
                        and o.__module__ == mod.__name__]:
                self._install_methods(layer, cls, mods)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _install_methods(self, layer, cls, mods):
        model_base = mods["altmax.modelapi"].Model
        if issubclass(cls, model_base) and cls is not model_base:
            methods = [(m, "modelapi." + m) for m in CONTRACT]
            methods += [(m, f"{layer}.{m}") for m in MODEL_EXTRA]
        elif cls.__name__ == "WaveletBasis":
            methods = [(m, "wavelet." + m) for m in BASIS_METHODS]
        elif cls.__name__ == "ExperimentReport":
            methods = [("write", "harness.report_write")]
        else:
            return
        for attr, name in methods:
            fn = cls.__dict__.get(attr)
            if inspect.isfunction(fn):
                setattr(cls, attr, self._wrap(name, fn, *self._hooks(name)))

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-function and per-layer counts and times, from the spans.

        `<fn>.calls/.s/.self_s` cover every call of a function; `<layer>.calls`
        and `<layer>.s` cover entries into the layer from outside it, and
        `<layer>.self_s` sums the self time of all its spans.  Self time is a
        span's duration minus the durations of its child spans.
        `<fn>.after_setup_s` is `<fn>.s` without the calls made inside
        `harness.build_context`.  Every installed name is reported, with zeros
        where it was not called.
        """
        n = len(self.starts)
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        setup_id = self._name_ids["harness.build_context"]
        in_setup = [False] * n  # parents precede children in span order
        layer_of = [name.split(".", 1)[0] for name in self.name_list]
        fn = {name: [0, 0, 0, 0] for name in self.name_list}
        layer = {lay: [0, 0, 0] for lay in LAYERS}
        for i in range(n):
            nid = self.names[i]
            p = self.parents[i]
            in_setup[i] = nid == setup_id or (p >= 0 and in_setup[p])
            self_ns = dur[i] - child[i]
            f = fn[self.name_list[nid]]
            f[0] += 1
            f[1] += dur[i]
            f[2] += self_ns
            if not in_setup[i]:
                f[3] += dur[i]
            lay = layer[layer_of[nid]]
            lay[2] += self_ns
            if p < 0 or layer_of[self.names[p]] != layer_of[nid]:
                lay[0] += 1
                lay[1] += dur[i]
        out = {}
        for name, (calls, tot, own, *after) in list(fn.items()) + list(layer.items()):
            out[name + ".calls"] = calls
            out[name + ".s"] = tot * 1e-9
            out[name + ".self_s"] = own * 1e-9
            if after:
                out[name + ".after_setup_s"] = after[0] * 1e-9
        c = self.counters
        for key in ("alternation.steps", "alternation.stop.max_steps",
                    "alternation.stop.stationary", "alternation.stop.tolerance",
                    "singleindex.grid_init.points", "wavelet.design.rows",
                    "wavelet.ddesign.rows", "wavelet.d2design.rows"):
            out[key] = c[key]
        grid_calls = fn["singleindex.grid_init"][0]
        out["singleindex.grid_init.useful_ratio"] = (
            c["singleindex.grid_init.useful"] / grid_calls if grid_calls else 0.0
        )
        out["trace.spans"] = n
        out["trace.replications"] = len({r for r in self.reps if r is not None})
        return out

    def write_spans(self, path):
        """One line per span: index, name, start and end (ns), parent, replication."""
        with open(path, "w") as f:
            f.write("span,name,start_ns,end_ns,parent,rep\n")
            for i in range(len(self.starts)):
                rep = "" if self.reps[i] is None else self.reps[i]
                f.write(f"{i},{self.name_list[self.names[i]]},{self.starts[i]},"
                        f"{self.ends[i]},{self.parents[i]},{rep}\n")
