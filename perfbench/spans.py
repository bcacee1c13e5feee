"""In-memory span recorder that wraps the public functions of pacomp's layers.

Wrapping happens from the benchmark's side only: every `pacomp.*` module
attribute that *is* one of the listed function objects is replaced by a
wrapper (this also catches names imported with `from .x import y`), as are
entries of module-level dispatch tables such as `cli._RULES`.
`LinearProgram.solve` is patched on its class.  Spans stay in memory as
tuples until the run ends; counters that need the call's arguments or result
(LP sizes, solution bit lengths, support graphs) keep references and are
computed after the traced phase, so their cost never lands inside a span.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "algebra", "model", "verify", "exactlp", "robust",
    "simulate", "proofrules", "modelio", "report", "cli",
)

# Helpers called once per element (identifier, rational, distribution) rather
# than once per operation: wrapping them would mostly measure the wrapper, so
# their cost stays in the caller's self time.  `interval_extreme_points` is
# the interval-set branch of `generators`, whose self time is meant to hold it.
UNWRAPPED = frozenset({
    "algebra.format_rational", "algebra.parse_rational", "algebra.poly_eval",
    "algebra.valuation", "algebra.valuation_key", "algebra.require_total",
    "model.sort_key", "model.dirac",
    "robust.freeze_dist", "robust.interval_extreme_points",
    "report.fmt_id", "report.scrub", "report.digest_bytes",
})

# Spans whose arguments or result feed a counter keep them in this slot.
_KEEP_ARGS = frozenset({"exactlp.lp_solve", "exactlp.gauss_solve", "verify.mo_achievable",
                        "robust.generators"})
_KEEP_RESULT = frozenset({"exactlp.lp_solve", "algebra.region_samples", "robust.generators",
                          "robust.pa_reduce", "simulate.dist_leq"})


class Tracer:
    """Records (name, start, end, parent, request, error, payload) per call."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self._patches = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        keep_args, keep_result = name in _KEEP_ARGS, name in _KEEP_RESULT
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            error = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                error = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                payload = (
                    (args if keep_args else None, result if keep_result else None)
                    if keep_args or keep_result else None
                )
                spans[idx] = (name, start, end, parent, tracer.request, error, payload)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every listed function wherever a pacomp module refers to it."""
        import pacomp.exactlp

        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"pacomp.{layer}"]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and f"{layer}.{attr}" not in UNWRAPPED):
                    originals[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for modname, mod in list(sys.modules.items()):
            if modname != "pacomp" and not modname.startswith("pacomp."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._set(mod, attr, originals[id(value)][1])
                elif isinstance(value, dict):
                    self._patch_table(value, originals)
        lp = pacomp.exactlp.LinearProgram
        self._set(lp, "solve", self._wrap("exactlp.lp_solve", lp.solve))

    def _patch_table(self, table, originals):
        for key, entry in list(table.items()):
            if id(entry) in originals and originals[id(entry)][0] is entry:
                new = originals[id(entry)][1]
            elif isinstance(entry, tuple) and any(id(e) in originals for e in entry):
                new = tuple(
                    originals[id(e)][1] if id(e) in originals and originals[id(e)][0] is e
                    else e
                    for e in entry
                )
            else:
                continue
            self._patches.append((table, key, entry, True))
            table[key] = new

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, key, old, is_table in reversed(self._patches):
            if is_table:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, request, error, _) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "error": error,
                }) + "\n")


def _bits(q):
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def _structure_key(pa, query, strategy_class):
    """Support graph of the model plus the automata of the query objectives."""
    graph = sorted(
        repr((s, a, pa.label[(s, a)], sorted(repr(t) for t, p in dist.items() if p != 0)))
        for (s, a), dist in pa.trans.items()
    )
    objectives = []
    for obj in query:
        dfa = getattr(obj, "dfa", None)
        if dfa is not None:
            objectives.append(repr((
                "prob", dfa.initial, sorted(map(repr, dfa.trans.items())),
                sorted(map(repr, dfa.accepting)),
            )))
        else:
            objectives.append(repr(("reward", sorted(sym for sym, _ in obj.rewards))))
    return repr((strategy_class, repr(pa.initial), graph, objectives))


def layer_metrics(spans):
    """Aggregate spans of one traced phase into the per-layer metrics."""
    children = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    errors = defaultdict(int)
    layer_self = defaultdict(float)
    lp_rows = lp_cols = lp_cols_max = lp_bits = 0
    gauss_n = 0
    samples = 0
    vertices = permutations = 0
    reduce_trans = 0
    accepts = 0
    mo_calls = mo_repeats = 0
    seen = defaultdict(set)
    for idx, (name, start, end, parent, request, error, payload) in enumerate(spans):
        own = (end - start) - children[idx]
        calls[name] += 1
        self_s[name] += own
        errors[name] += error
        layer_self[name.split(".", 1)[0]] += own
        if name.startswith("proofrules.apply_"):
            calls["proofrules.apply"] += 1
            self_s["proofrules.apply"] += own
        if payload is None:
            continue
        args, result = payload
        if name == "exactlp.lp_solve":
            lp = args[0]
            lp_rows += len(lp.eq) + len(lp.ub)
            lp_cols += lp.num_vars
            lp_cols_max = max(lp_cols_max, lp.num_vars)
            if result is not None and result[1] is not None:
                values = list(result[1]) + [result[2]]
                lp_bits = max([lp_bits] + [_bits(v) for v in values])
        elif name == "exactlp.gauss_solve":
            gauss_n = max(gauss_n, len(args[0]))
        elif name == "algebra.region_samples" and result is not None:
            samples += len(result)
        elif name == "robust.generators":
            uset = args[0]
            if hasattr(uset, "bounds"):
                cap = args[1] if len(args) > 1 else 10_000
                n_perm = math.factorial(len(uset.bounds))
                permutations += n_perm if not error else min(n_perm, cap + 1)
            if result is not None:
                vertices += len(result)
        elif name == "robust.pa_reduce" and result is not None:
            reduce_trans += len(result.trans)
        elif name == "simulate.dist_leq":
            accepts += result is True
        elif name == "verify.mo_achievable":
            mo_calls += 1
            pa, query = args[0], args[1]
            cls = args[2] if len(args) > 2 else "cmp"
            key = _structure_key(pa, query, cls)
            if key in seen[request]:
                mo_repeats += 1
            seen[request].add(key)

    def share(num, den):
        return num / den if den else 0.0

    out = {
        "exactlp.lp_solve.calls": calls["exactlp.lp_solve"],
        "exactlp.lp_solve.self_s": self_s["exactlp.lp_solve"],
        "exactlp.lp_rows_sum": lp_rows,
        "exactlp.lp_cols_sum": lp_cols,
        "exactlp.lp_cols_max": lp_cols_max,
        "exactlp.lp_max_bits": lp_bits,
        "exactlp.gauss_solve.calls": calls["exactlp.gauss_solve"],
        "exactlp.gauss_solve.self_s": self_s["exactlp.gauss_solve"],
        "exactlp.gauss_solve.n_max": gauss_n,
        "verify.mo_achievable.calls": calls["verify.mo_achievable"],
        "verify.mo_achievable.self_s": self_s["verify.mo_achievable"],
        "verify.mo_achievable.errors": errors["verify.mo_achievable"],
        "verify.repeat_structure_share": share(mo_repeats, mo_calls),
        "verify.safety_prob.self_s": self_s["verify.safety_prob"],
        "verify.region_sat.self_s": self_s["verify.region_sat"],
        "verify.ag_triple_check.self_s": self_s["verify.ag_triple_check"],
        "verify.monotone_check.self_s": self_s["verify.monotone_check"],
        "algebra.region_samples.calls": calls["algebra.region_samples"],
        "algebra.samples": samples,
        "algebra.region_samples.self_s": self_s["algebra.region_samples"],
        "model.instantiate.calls": calls["model.instantiate"],
        "model.instantiate.self_s": self_s["model.instantiate"],
        "model.well_defined.self_s": self_s["model.well_defined"],
        "model.compose.self_s": self_s["model.compose"],
        "model.tau_extend.self_s": self_s["model.tau_extend"],
        "robust.generators.calls": calls["robust.generators"],
        "robust.generators.self_s": self_s["robust.generators"],
        "robust.generators.errors": errors["robust.generators"],
        "robust.vertices": vertices,
        "robust.vertex_yield": share(vertices, permutations),
        "robust.conv_compose.self_s": self_s["robust.conv_compose"],
        "robust.pa_reduce.self_s": self_s["robust.pa_reduce"],
        "robust.pa_reduce.out_trans": reduce_trans,
        "simulate.strong_sim.self_s": self_s["simulate.strong_sim"],
        "simulate.robust_strong_sim.self_s": self_s["simulate.robust_strong_sim"],
        "simulate.dist_leq.calls": calls["simulate.dist_leq"],
        "simulate.dist_leq.self_s": self_s["simulate.dist_leq"],
        "simulate.dist_leq_accept_share": share(accepts, calls["simulate.dist_leq"]),
        "proofrules.apply.calls": calls["proofrules.apply"],
        "proofrules.apply.self_s": self_s["proofrules.apply"],
        "modelio.load_document.self_s": self_s["modelio.load_document"],
        "report.make_report.self_s": self_s["report.make_report"],
        "report.render_report.self_s": self_s["report.render_report"],
        "cli.main.self_s": self_s["cli.main"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    top = sorted(
        ((s, n) for n, s in self_s.items() if n != "proofrules.apply"), reverse=True
    )[:5]
    return out, [{"name": n, "self_s": s} for s, n in top]
