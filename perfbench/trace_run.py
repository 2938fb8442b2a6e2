"""Run one ``bigjump`` CLI command in this process with a span around every
call into each package module.

    python3 perfbench/trace_run.py SPANS_FILE -- ldp --config exp.cfg --out out/

Each wrapper is installed by rebinding the name where its caller looks it
up: every ``bigjump`` module attribute that holds the original function, or
the class attribute for methods.  Wrappers read ``time.perf_counter`` and
the call's arguments and results; they never touch a random stream, so the
traced run must write the same result rows as an untraced one.

Spans stay in memory and are written to SPANS_FILE as JSON when the command
ends.  Worker processes forked by the package's process pool inherit the
wrappers; each writes its spans to ``SPANS_FILE.<pid>.jsonl`` when a task
returns.  A target that no longer exists in the package is listed under
``absent`` instead of being wrapped.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

# span name -> "module:attribute" targets (methods as "module:Class.method")
LAYERS = {
    "cli": ["bigjump.cli:main"],
    "laws.sample": [
        "bigjump.laws:TailLaw.sample",
        "bigjump.laws:TailLaw.quantile",
        "bigjump.laws:WaitLaw.sample",
        "bigjump.laws:JointMarkSpec.offspring_counts",
    ],
    "clusters.simulate_batch": ["bigjump.clusters:simulate_batch"],
    "paths.centering": ["bigjump.paths:centering_mb", "bigjump.paths:centering_hawkes"],
    "events": [
        "bigjump.events:parse_event",
        "bigjump.events:format_event",
        "bigjump.events:TerminalExceed.dk_separation",
        "bigjump.events:ValueAt.dk_separation",
        "bigjump.events:SupExceed.dk_separation",
        "bigjump.events:JumpCount.dk_separation",
        "bigjump.events:DkProxy.dk_separation",
    ],
    "measures.mu_sharp": ["bigjump.measures:mu_sharp"],
    "m1.bracket": ["bigjump.m1:m1_distance_bracket"],
    "m1.decision": ["bigjump.m1:_free_space_reachable"],
    "harness.estimate": [
        "bigjump.harness:ldp_ratio",
        "bigjump.harness:splitting_estimate",
        "bigjump.harness:crude_estimate",
    ],
    "harness.fan_out": ["bigjump.harness:_run_tasks"],
    "harness.task": ["bigjump.harness:_stratum_chunk", "bigjump.harness:_crude_chunk"],
    "harness.p_big": ["bigjump.harness:_estimate_p_big"],
    "harness.conditioned_pool": ["bigjump.harness:_conditional_pool"],
    "harness.jump_arrays": ["bigjump.harness:_simulate_jump_arrays"],
    "harness.event_eval": ["bigjump.harness:_eval_event_chunk"],
    "streams.substream": ["bigjump.streams:substream"],
}

# span name -> counters read from the bound arguments and the result
COUNTERS = {
    "clusters.simulate_batch": lambda a, out: {"clusters": int(out.n), "events": int(out.cid.size)},
    "harness.conditioned_pool": lambda a, out: {"accepted": int(a["n_needed"])},
    "harness.event_eval": lambda a, out: {"reps": int(a["n"]), "jumps": int(a["rep"].size)},
    "m1.decision": lambda a, out: {"cells": len(a["g1"]) * len(a["g2"])},
}


class Tracer:
    def __init__(self, path: str):
        self.path = path
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[str] = []
        self.count = 0
        self.fork_depth: int | None = None  # stack depth inherited by a forked worker
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.fork_depth = len(self.stack)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count += 1
            sid = f"{self.pid}:{self.count}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
            try:
                extra = counter(sig.bind(*args, **kwargs).arguments, out) if counter else {}
            except (KeyError, AttributeError, TypeError):  # the target's signature changed
                extra = {}
            self.spans.append([sid, parent, name, t0, t1, extra])
            if self.fork_depth is not None and len(self.stack) == self.fork_depth:
                self._flush_worker()
            return out

        return traced

    def _flush_worker(self) -> None:
        with open(f"{self.path}.{self.pid}.jsonl", "a") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def install(self) -> list[str]:
        """Wrap every target; return the targets that do not exist."""
        absent = []
        for name, targets in LAYERS.items():
            for target in targets:
                if not self._install_one(name, target):
                    absent.append(target)
        return absent

    def _install_one(self, name: str, target: str) -> bool:
        mod_name, _, attr = target.partition(":")
        try:
            owner = importlib.import_module(mod_name)
        except ImportError:
            return False
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name, None)
            if cls is None or meth not in vars(cls):
                return False
            setattr(cls, meth, self.wrap(name, vars(cls)[meth]))
            return True
        original = getattr(owner, attr, None)
        if original is None:
            return False
        traced = self.wrap(name, original)
        for mod_key, mod in list(sys.modules.items()):
            if mod_key.split(".")[0] == "bigjump" and getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
        return True


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: trace_run.py SPANS_FILE -- <bigjump arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    import bigjump.cli

    tracer = Tracer(spans_path)
    absent = tracer.install()
    try:
        code = bigjump.cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "absent": absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
