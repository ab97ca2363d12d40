"""Outside-in per-layer tracing of salmagundy, from the benchmark's own files.

``Tracer.install`` rebinds the module-level names through which the package's
modules call each other's public functions (for example
``salmagundy.mephisto.validate_bundle``), plus a few methods and Mephisto's
candidate-generation helpers, to wrappers that record one span per call:
name, start, end, parent span and game id. ``uninstall`` puts every original
back; ``Tracer`` is a context manager, so that happens even after an
exception. Nothing under ``src/`` is edited.

A function that is called through more than one module gets one span name per
call site: ``game.validate_bundle.sieve`` is Mephisto filtering candidates,
``game.validate_bundle.umpire`` is ``apply_round`` checking the chosen
bundle. ``Board.leq`` is deliberately left alone (tens of millions of calls
per adversarial pass); its cost lands in its callers' self time.

Spans stay in memory as columns and are written out at the end; ``stats``
folds them into calls, total time and self time per call site, per
function, per module and per named group. Total time counts only the
outermost span of a key, so a function nested in itself, or one quest check
calling another, is not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
import types
from array import array
from collections import Counter
from typing import Dict, List, Tuple

PACKAGE = "salmagundy"
LAYERS = ("board", "scenario", "transform", "quests", "game", "mephisto", "dido", "harness")

# Mephisto's candidate generation: keep sets, order assignment, assembly and
# de-duplication. They are private, so a later change may remove one; the
# tracer skips names that no longer exist.
PRIVATE = {
    "mephisto": (
        "_root_keep_max",
        "_down_closed_keeps",
        "_root_response",
        "_assign_orders",
        "_assemble_blowup",
        "_fingerprint",
    ),
}

# (module, class, method, span name)
METHODS = (
    ("board", "Board", "__init__", "board.Board"),
    ("game", "GameState", "clone", "game.GameState.clone"),
    ("dido", "DidoStrategy", "decide", "dido.decide"),
    ("dido", "DidoStrategy", "observe", "dido.observe"),
)

# Readable labels for call sites, keyed by (binding module, function name);
# other sites are labelled with the binding module's name.
SITE_LABELS = {
    ("game", "validate_bundle"): "umpire",
    ("mephisto", "validate_bundle"): "sieve",
    ("mephisto", "validate_blowup_transform"): "sieve",
    ("game", "apply_round"): "replay",
    ("harness", "apply_round"): "play",
    ("mephisto", "enumerate_blowup_bundles"): "respond",
    ("harness", "enumerate_blowup_bundles"): "explore",
    ("mephisto", "enumerate_call_bundles"): "respond",
    ("harness", "enumerate_call_bundles"): "explore",
}

GROUPS = {
    "game.serialize": ("game.round_to_json", "game.bundle_to_json", "game.trace_header"),
}


def _code_names(module: types.ModuleType) -> set:
    """Global and attribute names the module's own functions and methods use."""
    todo = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            todo.append(obj.__code__)
        elif inspect.isclass(obj):
            for attr in vars(obj).values():
                fn = getattr(attr, "__func__", attr)
                if isinstance(attr, property):
                    fn = attr.fget
                if inspect.isfunction(fn):
                    todo.append(fn.__code__)
    names = set()
    while todo:
        code = todo.pop()
        names.update(code.co_names)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return names


def _transform_key(t) -> tuple:
    return (
        t.kind,
        t.source,
        t.target,
        tuple(sorted(t.embed.items())),
        tuple(sorted(t.retract.items())),
        t.center,
    )


class Tracer:
    """Records spans around the package's layer boundaries while installed."""

    def __init__(self) -> None:
        self.site_names: List[str] = []
        self._keys: List[Tuple[str, ...]] = []  # stat keys of each site name
        self.span_site = array("i")
        self.span_parent = array("i")
        self.span_game = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.game = -1
        self.counters: Counter = Counter()
        self._transforms = set()
        self._restore: List[Tuple[object, str, object]] = []

    # ---- recording -----------------------------------------------------------

    def _site_id(self, site: str, function: str, module: str) -> int:
        keys = [site] if site != function else []
        keys.append(function)
        keys.append(module)
        keys.extend(g for g, members in GROUPS.items() if function in members)
        self.site_names.append(site)
        self._keys.append(tuple(keys))
        return len(self.site_names) - 1

    def _wrap(self, fn, sid: int, hook=None):
        sites, parents, games = self.span_site, self.span_parent, self.span_game
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def open_span() -> int:
            i = len(starts)
            sites.append(sid)
            parents.append(stack[-1])
            games.append(tracer.game)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            return i

        if inspect.isgeneratorfunction(fn):
            # One span per resumption: the time the generator runs for its
            # consumer, not the time it sits suspended.
            def resume(gen):
                while True:
                    i = open_span()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        ends[i] = clock()
                        stack.pop()
                    yield item

            def traced(*args, **kwargs):
                return resume(fn(*args, **kwargs))

            return traced

        def traced(*args, **kwargs):
            i = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # ---- hooks: counts measured where the work happens ------------------------

    def _sieve_bundle(self, args, result) -> None:
        if args[1].kind == "blowup" and not result:
            self.counters["mephisto.bundles_valid"] += 1

    def _sieve_root(self, args, result) -> None:
        if result:
            v = result[0]
            self.counters[f"mephisto.reject.{v.rule}.{v.issue}"] += 1

    def _board_transform(self, args, result) -> None:
        self._transforms.add(_transform_key(args[0]))

    def _trace_line(self, args, result) -> None:
        self.counters["game.serialize.bytes"] += len(result)

    def _hook(self, binding: str, function: str):
        if function == "game.validate_bundle" and binding == "mephisto":
            return self._sieve_bundle
        if function == "transform.validate_blowup_transform" and binding == "mephisto":
            return self._sieve_root
        if function == "board.validate_board_transform":
            return self._board_transform
        if function == "game.round_to_json":
            return self._trace_line
        return None

    # ---- installing ------------------------------------------------------------

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
        used = {m: _code_names(mod) for m, mod in modules.items()}
        try:
            for home, mod in modules.items():
                for name, fn in list(vars(mod).items()):
                    public = not name.startswith("_") or name in PRIVATE.get(home, ())
                    if not (public and inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                        continue
                    self._wrap_function(home, name, fn, modules, used)
            for home, cls_name, meth, span in METHODS:
                cls = getattr(modules[home], cls_name, None)
                fn = vars(cls).get(meth) if cls is not None else None
                if inspect.isfunction(fn):
                    self._rebind(cls, meth, self._wrap(fn, self._site_id(span, span, home)))
        except BaseException:
            self.uninstall()
            raise
        return self

    def _wrap_function(self, home, name, fn, modules, used) -> None:
        function = f"{home}.{name}"
        bindings = [m for m, mod in modules.items() if vars(mod).get(name) is fn]
        callers = [m for m in bindings if name in used[m]]
        for m in bindings:
            if m != home and m not in callers:
                continue  # imported but never called through this binding
            if len(callers) > 1:
                site = f"{function}.{SITE_LABELS.get((m, name), m)}"
            else:
                site = function
            sid = self._site_id(site, function, home)
            self._rebind(modules[m], name, self._wrap(fn, sid, self._hook(m, function)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ---- results ---------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def root_seconds(self) -> float:
        """Summed duration of spans without a parent."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        return sum(ends[i] - starts[i] for i in range(len(starts)) if parents[i] < 0) / 1e9

    def stats(self) -> Dict[str, float]:
        """calls, total_s and self_s for every site, function, module and group
        key, plus the counters. Call this after ``uninstall``."""
        starts, ends, parents, site = self.span_start, self.span_end, self.span_parent, self.span_site
        n = len(starts)
        keys = self._keys
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        active: Counter = Counter()
        child = [0] * n
        stack: List[int] = []
        for i in range(n):
            p = parents[i]
            while stack and stack[-1] != p:
                for k in keys[site[stack.pop()]]:
                    active[k] -= 1
            d = ends[i] - starts[i]
            if p >= 0:
                child[p] += d
            for k in keys[site[i]]:
                calls[k] += 1
                if not active[k]:
                    total[k] += d
                active[k] += 1
            stack.append(i)
        for i in range(n):
            d = ends[i] - starts[i] - child[i]
            for k in keys[site[i]]:
                own[k] += d
        out: Dict[str, float] = {}
        for k in calls:
            out[f"{k}.calls"] = calls[k]
            out[f"{k}.total_s"] = total[k] / 1e9
            out[f"{k}.self_s"] = own[k] / 1e9
        vbt = calls["board.validate_board_transform"]
        out["board.validate_board_transform.repeat_frac"] = (
            1 - len(self._transforms) / vbt if vbt else 0.0
        )
        out.update(self.counters)
        sieved = calls["transform.validate_blowup_transform.sieve"]
        valid = self.counters["mephisto.bundles_valid"]
        out["mephisto.valid_ratio"] = valid / sieved if sieved else 0.0
        return out

    def write_spans(self, path: str) -> None:
        """Dump the spans: a JSON header line, then the raw columns in order."""
        header = {
            "sites": self.site_names,
            "count": self.span_count,
            "columns": [
                ["site", self.span_site.typecode],
                ["parent", self.span_parent.typecode],
                ["game", self.span_game.typecode],
                ["start_ns", self.span_start.typecode],
                ["end_ns", self.span_end.typecode],
            ],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for col in (self.span_site, self.span_parent, self.span_game,
                        self.span_start, self.span_end):
                col.tofile(f)
