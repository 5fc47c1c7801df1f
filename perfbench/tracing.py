"""In-process tracing of pattern-forge's public layer boundaries.

The tracer wraps the public functions and methods listed in TARGETS from
outside the package: nothing in ``src/`` knows it exists.  Each wrapped
call is one span (name, start, end, parent).  Per-name totals (calls,
total seconds, self seconds) are kept for every span; individual spans
are kept up to a cap, because the hot boundaries (``Element.__hash__``)
fire millions of times, and written out when the run ends.

A layer's self time is the sum over its spans of the span's duration
minus the time covered by its child spans.

Run as a script, it executes one CLI invocation under tracing and prints
a JSON summary as its last stdout line:

    PYTHONPATH=src python3 perfbench/tracing.py --spans FILE -- verify ...
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time

PACKAGE = "pattern_forge"

#: (span name, "module:qualname").  The span name's prefix is its layer.
TARGETS = (
    ("cli.main", "pattern_forge.cli:main"),
    ("patterns.search", "pattern_forge.patterns:search"),
    ("patterns.is_adequate", "pattern_forge.patterns:is_adequate"),
    ("verify.find_monochromatic_fs",
     "pattern_forge.verify:find_monochromatic_fs"),
    ("verify.find_monochromatic_span",
     "pattern_forge.verify:find_monochromatic_span"),
    ("verify.group_subset_sums",
     "pattern_forge.verify:GroupDomain.subset_sums"),
    ("verify.branch_subset_sums",
     "pattern_forge.verify:BranchSetDomain.subset_sums"),
    ("groups.fs_set_formal", "pattern_forge.groups:fs_set_formal"),
    ("groups.add", "pattern_forge.groups:Element.__add__"),
    ("groups.hash", "pattern_forge.groups:Element.__hash__"),
    ("groups.rmul", "pattern_forge.groups:Element.__rmul__"),
    ("groups.enumerate", "pattern_forge.groups:GroupSpec.enumerate"),
    ("colourings.sum_squares",
     "pattern_forge.colourings:sum_squares_colouring"),
    ("colourings.product_sigma",
     "pattern_forge.colourings:product_sigma_colouring"),
    ("colourings.subgroup", "pattern_forge.colourings:subgroup_colouring"),
    ("colourings.valuation", "pattern_forge.colourings:valuation_colouring"),
    ("colourings.delta", "pattern_forge.colourings:delta_colouring"),
    ("colourings.symdiff",
     "pattern_forge.colourings:BranchSet.symmetric_difference"),
    ("colourings.branch_hash", "pattern_forge.colourings:BranchSet.__hash__"),
    ("tokens.token_init", "pattern_forge.tokens:ColourToken.__init__"),
    ("tokens.token_eq", "pattern_forge.tokens:ColourToken.__eq__"),
    ("tokens.canonical_json", "pattern_forge.tokens:canonical_json"),
)

LAYERS = ("cli", "patterns", "verify", "groups", "colourings", "tokens")
COLOUR_SPANS = ("colourings.sum_squares", "colourings.product_sigma",
                "colourings.subgroup", "colourings.valuation",
                "colourings.delta")
SUBSET_SUM_SPANS = ("verify.group_subset_sums", "verify.branch_subset_sums")

#: spans kept individually: every span of depth < KEEP_DEPTH (cli.main and
#: the oracle or search it calls), and the first SPAN_CAP of the others
SPAN_CAP = 20_000
KEEP_DEPTH = 2


class Tracer:
    """Span stack plus per-name totals: calls, total_s, self_s, items."""

    def __init__(self, clock=time.perf_counter, span_cap: int = SPAN_CAP):
        self.clock = clock
        self.span_cap = span_cap
        self.stack: list = []  # frames: [span id, start, child seconds]
        self.totals = {name: [0, 0.0, 0.0, 0] for name, _ in TARGETS}
        self.spans: list = []  # (id, name, start, end, parent id)
        self.dropped = 0
        self._next_id = 0

    def enter(self) -> list:
        self._next_id += 1
        frame = [self._next_id, self.clock(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, name: str, frame: list, items: int = 0) -> None:
        end = self.clock()
        self.stack.pop()
        span_id, start, child = frame
        duration = end - start
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        total[3] += items
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.stack) < KEEP_DEPTH or len(self.spans) < self.span_cap:
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent else None))
        else:
            self.dropped += 1

    def wrap(self, name: str, fn, count_items: bool = False):
        """A traced stand-in for fn; generator functions get one span per
        resume, so a span covers only time spent inside the generator."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = self.enter()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.exit(name, frame)
                    yield value
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter()
            items = 0
            try:
                result = fn(*args, **kwargs)
                if count_items:
                    items = len(result)
                return result
            finally:
                self.exit(name, frame, items)
        return traced


def _package_namespaces() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def install(tracer: Tracer, targets=TARGETS):
    """Install a wrapper for every target and return a function that
    removes them all.

    Functions are replaced by object identity in every pattern_forge
    namespace that holds them, because modules bind names with
    ``from ... import`` and a patch of the defining module alone would
    miss their calls.  Methods are replaced on their class, which every
    namespace shares.
    """
    undo = []
    for name, spec in targets:
        module_name, _, qualname = spec.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        count_items = name in SUBSET_SUM_SPANS
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(
                    tracer.wrap(name, raw.__func__, count_items))
            else:
                wrapped = tracer.wrap(name, raw, count_items)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, raw))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, count_items)
        for namespace in _package_namespaces():
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapped)
                    undo.append((namespace, key, original))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return uninstall


def layer_metrics(totals: dict, stdout_doc: dict) -> dict:
    """The per-layer metrics, from span totals and the CLI's own output.
    A span that never fired contributes zeros, never a missing key."""
    def calls(name):
        return totals[name][0]

    def total_s(name):
        return totals[name][1]

    def self_s(name):
        return totals[name][2]

    nodes = stdout_doc.get("nodes", 0)  # search outcomes
    enumerated = stdout_doc.get("enumerated", 0)  # certificates
    colour_calls = sum(calls(n) for n in COLOUR_SPANS)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v[2] for n, v in totals.items() if n.split(".")[0] == layer)
    out.update({
        "patterns.nodes": nodes,
        "patterns.us_per_node": (self_s("patterns.search") / nodes * 1e6
                                 if nodes else 0.0),
        "patterns.recheck_s": total_s("patterns.is_adequate"),
        "groups.add_calls": calls("groups.add"),
        "groups.add_s": total_s("groups.add"),
        "groups.hash_calls": calls("groups.hash"),
        "groups.hash_s": total_s("groups.hash"),
        "groups.fs_set_formal_s": total_s("groups.fs_set_formal"),
        "verify.enumerated": enumerated,
        "verify.sums_built": sum(totals[n][3] for n in SUBSET_SUM_SPANS),
        "verify.colour_calls_per_combo": (colour_calls / enumerated
                                          if enumerated else 0.0),
        "colourings.colour_calls": colour_calls,
        "colourings.colour_self_s": sum(self_s(n) for n in COLOUR_SPANS),
        "colourings.symdiff_s": total_s("colourings.symdiff"),
        "tokens.token_builds": calls("tokens.token_init"),
        "tokens.token_build_s": total_s("tokens.token_init"),
        "tokens.eq_calls": calls("tokens.token_eq"),
        "tokens.canonical_json_s": total_s("tokens.canonical_json"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True,
                        help="file to write the recorded spans to")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv
    if cli_argv[:1] == ["--"]:
        cli_argv = cli_argv[1:]

    t0 = time.perf_counter()
    cli = importlib.import_module(PACKAGE + ".cli")
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    install(tracer)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        try:
            code = cli.main(cli_argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    stdout = captured.getvalue()
    try:
        doc = json.loads(stdout)
    except ValueError:
        doc = {}
    if not isinstance(doc, dict):
        doc = {}
    metrics = layer_metrics(tracer.totals, doc)
    metrics["cli.import_s"] = import_s

    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent"],
                   "spans": tracer.spans, "dropped": tracer.dropped,
                   "total_fields": ["calls", "total_s", "self_s", "items"],
                   "totals": tracer.totals}, fh)
    print(json.dumps({"exit": code, "stdout": stdout, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
