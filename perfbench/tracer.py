"""Outside-in tracer for the fcre package.

The tracer wraps public functions of the package in every module
namespace that binds them (``continual`` and ``inference`` import
functions by name, so patching only the defining module would miss
their calls).  Timed functions record spans; a span's self time is its
duration minus the time covered by the timed spans it encloses.
Counted functions are only counted: they run 1e5-1e6 times per seed,
so timing them would distort what is measured, and their time stays
in the self time of the enclosing span.

``install`` returns the list of patched attributes and ``restore``
puts every original back, so a traced run leaves the package as it
found it.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter, defaultdict

# module -> functions whose calls open a span
TIMED = {
    "cli": ("run_single_seed",),
    "datagen": ("generate_stream", "ingest_dataset"),
    "descriptions": ("synth_descriptions", "ingest_descriptions"),
    "continual": ("select_memory", "build_prototypes", "write_checkpoint"),
    "losses": ("joint_loss", "scl_loss", "hsmt_loss", "hm_loss", "mi_loss", "mine_hard"),
    "encoder": ("encode", "encode_backward", "step"),
    "inference": ("evaluate",),
}
# module -> functions that are counted only
COUNTED = {
    "geometry": ("as_embedding", "euclidean", "cosine", "rank_scores"),
    "inference": ("ncm_predict", "dri_predict"),
}
# modules whose self time is reported as a share of the traced seed
LAYERS = tuple(TIMED)


class Tracer:
    """Call counts, self times and per-call tallies of one traced seed."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.tally: Counter = Counter()
        self._open: list[float] = []  # child time covered so far, per open span
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------

    def _timed(self, name, fn, after=None, span_name=None):
        calls, self_s, stack = self.calls, self.self_s, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = span_name(args, kwargs) if span_name else name
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[span] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                calls[span] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn, tally=None):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if tally is not None:
                tally(args)
            return fn(*args, **kwargs)

        return wrapper

    # -- per-call tallies ---------------------------------------------

    def _after_joint_loss(self, args, kwargs, result):
        self.tally["rows"] += args[0].size
        self.tally["no_positive"] += result.no_positive_count
        self.tally["no_pair"] += result.no_pair_count
        self.tally["clamped"] += result.clamped_count

    def _after_mine_hard(self, args, kwargs, result):
        if result.hard_positives or result.hard_negatives:
            self.tally["mine_hits"] += 1

    def _tally_predict(self, args):
        self.tally["relations_scored"] += len(args[1])

    def _after_write_checkpoint(self, args, kwargs, _):
        self.tally["checkpoint_bytes"] += os.path.getsize(args[0])
        self.tally["memory_rows"] = args[1].memory.total_samples

    @staticmethod
    def _evaluate_span(args, kwargs):
        head = args[2] if len(args) > 2 else kwargs["head"]
        return f"inference.evaluate.{head}"

    def _wrapper_for(self, module, fn_name, fn):
        name = f"{module}.{fn_name}"
        if module in COUNTED and fn_name in COUNTED[module]:
            tally = self._tally_predict if fn_name.endswith("_predict") else None
            return self._counted(name, fn, tally)
        after = {
            "joint_loss": self._after_joint_loss,
            "mine_hard": self._after_mine_hard,
            "write_checkpoint": self._after_write_checkpoint,
        }.get(fn_name)
        span_name = self._evaluate_span if fn_name == "evaluate" else None
        return self._timed(name, fn, after, span_name)

    # -- patching -----------------------------------------------------

    def install(self) -> list[tuple[object, str, object]]:
        """Wrap every target in every ``fcre`` namespace that binds it."""
        targets = [(mod, fn) for table in (TIMED, COUNTED)
                   for mod, fns in table.items() for fn in fns]
        modules = {mod: importlib.import_module(f"fcre.{mod}") for mod, _ in targets}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "fcre" or n.startswith("fcre."))]
        for module, fn_name in targets:
            original = getattr(modules[module], fn_name)
            wrapper = self._wrapper_for(module, fn_name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))
        return list(self._patched)

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patched:
            ns, attr, original = self._patched.pop()
            setattr(ns, attr, original)

    # -- results ------------------------------------------------------

    def metrics(self, seed_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced seed lasting ``seed_s`` seconds."""
        c, s, t = self.calls, self.self_s, self.tally
        out: dict[str, float] = {}
        for module, fns in TIMED.items():
            for fn in fns:
                name = f"{module}.{fn}"
                if fn == "run_single_seed":
                    out[f"{name}.s"] = s[name]
                elif fn != "evaluate":
                    out[f"{name}.calls"] = c[name]
                    if module not in ("datagen", "descriptions"):
                        out[f"{name}.s"] = s[name]
        # A workload either generates or ingests its data, so load time is
        # reported once per module and which path ran shows in the counts.
        for module in ("datagen", "descriptions"):
            out[f"{module}.s"] = sum(s[f"{module}.{fn}"] for fn in TIMED[module])
        out["losses.joint_loss.rows"] = t["rows"]
        out["losses.no_positive"] = t["no_positive"]
        out["losses.no_pair"] = t["no_pair"]
        out["losses.clamped"] = t["clamped"]
        mining = c["losses.mine_hard"]
        out["losses.mine_hard.hit_ratio"] = t["mine_hits"] / mining if mining else 0.0
        out["continual.train.backward_ratio"] = (
            c["encoder.encode_backward"] / t["rows"] if t["rows"] else 0.0
        )
        for head in ("ncm", "dri"):
            out[f"inference.evaluate.{head}.s"] = s[f"inference.evaluate.{head}"]
        for module, fns in COUNTED.items():
            for fn in fns:
                out[f"{module}.{fn}.calls"] = c[f"{module}.{fn}"]
        out["inference.relations_scored"] = t["relations_scored"]
        out["continual.write_checkpoint.bytes"] = t["checkpoint_bytes"]
        out["continual.memory_rows"] = t["memory_rows"]
        for layer in LAYERS:
            layer_s = sum(v for k, v in s.items() if k.startswith(layer + "."))
            out[f"layer.{layer}.share"] = 100.0 * layer_s / seed_s
        return out
