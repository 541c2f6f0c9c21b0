"""In-memory span recorder that wraps permkit's public names from outside.

Nothing under ``src/`` is edited: while a traced op runs, the module-level
names that the procedures look up at call time are replaced by timing
wrappers, and restored afterwards.  Each span is ``(name, start, end,
parent, op)``; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

# (module, attribute, span name).  The procedures resolve these through
# their module globals, so replacing the attribute is enough to see them.
WRAPPED = (
    ("perm_core", "permutation_distribution", "perm_core.permutation_distribution"),
    ("perm_core", "critical_value", "perm_core.critical_value"),
    ("perm_core", "p_value", "perm_core.p_value"),
    ("testing", "gram", "kernels.gram"),
    ("testing", "bin_data", "testing.bin_data"),
    ("testing", "two_sample_u_many", "ustats.two_sample_u_many"),
    ("testing", "independence_u_many", "ustats.independence_u_many"),
    ("dataio", "load_two_sample_csv", "dataio.load_two_sample_csv"),
    ("dataio", "outcome_record", "dataio.outcome_record"),
    ("dataio", "write_outcome_json", "dataio.write_outcome_json"),
)

# span name -> layer whose self time it counts toward.  "op" is the
# benchmark's own span around one op; "testing.stat" wraps the statistic
# object a procedure hands to permutation_distribution, so the private
# count-statistic evaluators land in testing's self time, not perm_core's.
LAYER = {
    "op": "testing.self",
    "testing.stat": "testing.self",
    "testing.bin_data": "testing.bin",
    "kernels.gram": "kernels.gram",
    "ustats.two_sample_u_many": "ustats.eval",
    "ustats.independence_u_many": "ustats.eval",
    "perm_core.permutation_distribution": "perm_core.self",
    "perm_core.critical_value": "perm_core.decide",
    "perm_core.p_value": "perm_core.decide",
    "dataio.load_two_sample_csv": "dataio.load",
    "dataio.outcome_record": "dataio.emit",
    "dataio.write_outcome_json": "dataio.emit",
}
LAYERS = tuple(dict.fromkeys(LAYER.values()))


class _TimedStat:
    """Forward a statistic evaluator, recording each call as a span."""

    def __init__(self, tracer: "Tracer", stat) -> None:
        self._tracer = tracer
        self._stat = stat
        if hasattr(stat, "evaluate_many"):
            self.evaluate_many = tracer.wrap(stat.evaluate_many, "testing.stat")

    def __call__(self, data, perm):
        with self._tracer.span("testing.stat"):
            return self._stat(data, perm)


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self, modules: dict) -> None:
        self.spans: list[list] = []
        self.plans: list[tuple] = []  # (n, plan) of each permutation_distribution call
        self._stack: list[int] = []
        self._modules = modules
        self.op = None
        for module, attr, _ in WRAPPED:
            if not callable(getattr(modules[module], attr, None)):
                raise RuntimeError(f"traced name permkit.{module}.{attr} no longer exists")

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return timed

    def _wrap_distribution(self, fn):
        timed = self.wrap(fn, "perm_core.permutation_distribution")

        @functools.wraps(fn)
        def distribution(stat, data, n, plan):
            self.plans.append((n, plan))
            return timed(_TimedStat(self, stat), data, n, plan)

        return distribution

    @contextlib.contextmanager
    def installed(self):
        """Replace every WRAPPED name by its timing wrapper for the block."""
        saved = []
        try:
            for module, attr, name in WRAPPED:
                mod = self._modules[module]
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                if attr == "permutation_distribution":
                    setattr(mod, attr, self._wrap_distribution(fn))
                else:
                    setattr(mod, attr, self.wrap(fn, name))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def layer_ms(self, op) -> dict:
        """Self time per layer (ms) of the spans under one op's "op" span.

        A span's self time is its duration minus its children's durations;
        spans of one thread nest, so the children never overlap and the self
        times of the tree sum to the op span.
        """
        members = [i for i, s in enumerate(self.spans) if s[4] == op]
        children: dict = {i: [] for i in members}
        for i in members:
            parent = self.spans[i][3]
            if parent in children:
                children[parent].append(i)
        out = dict.fromkeys(LAYERS, 0.0)
        for i in members:
            name, start, end, _, _ = self.spans[i]
            if name not in LAYER:
                continue
            covered = sum(self.spans[c][2] - self.spans[c][1] for c in children[i])
            out[LAYER[name]] += (end - start - covered) * 1e3
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "name": name, "start_s": start - t0, "end_s": end - t0,
                    "parent": parent, "op": op,
                }) + "\n")
