"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces selected functions of the ``geomindep``
modules with timing wrappers at every binding site: the defining module,
every module that imported the name with ``from .x import y``, and class
attributes (``__rmul__ = __mul__``).  ``uninstall()`` puts the originals
back.  Each call becomes a span (name, start, end, parent) kept in memory;
self time is a span's duration minus the durations of its direct children.
The program is single-threaded, so one span stack suffices.

``EPSet.__contains__`` and the value constructors (``Polynomial`` and
``FiniteSet`` initialisation) are left alone on purpose: they run up to
millions of times and their wrappers would swamp what is measured.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
from array import array
from time import perf_counter

# (module, attribute path, span name).  The span name is the layer metric
# prefix; its first component is the module, i.e. the layer.
SPANS = (
    ("cli", "main", "cli"),
    *(("textforms", f, "textforms") for f in (
        "parse_rational", "parse_poly", "parse_set",
        "format_rational", "format_poly", "format_set")),
    *(("constructions", f, "constructions") for f in (
        "alternating_blocks", "build_pair", "build_triple", "multiples_pair",
        "golden_ratio_counterexample", "quotient_lift", "quotient_lower",
        "build_sequence", "finite_space_check")),
    *(("independence", f, "independence") for f in (
        "indep_family_symbolic", "indep_family_at", "indep_family_mod",
        "cond_indep_given", "is_trivial")),
    ("measure", "measure_symbolic", "measure.symbolic"),
    ("measure", "measure_at", "measure.at"),
    ("measure", "measure_numeric", "measure"),
    ("search", "enumerate_independent", "search.enumerate"),
    ("search", "verify_converse", "search.classify"),
    ("search", "gap_tail_bound", "search"),
    ("thresholds", "solve_threshold", "thresholds"),
    ("thresholds", "truncated_value", "thresholds"),
    ("sets", "EPSet.__post_init__", "sets.epset"),
    ("sets", "_combine", "sets.combine"),
    *(("sets", f, "sets") for f in (
        "member", "to_epset", "union", "intersect", "diff", "complement",
        "translate", "minkowski", "prefix", "sets_equal", "is_empty",
        "is_subset", "from_predicate", "rebased")),
    ("polynomials", "Polynomial.__mul__", "polynomials.mul"),
    ("polynomials", "Polynomial.__pow__", "polynomials"),
    ("polynomials", "poly_gcd", "polynomials.gcd"),
    ("polynomials", "RationalFunction.__post_init__", "polynomials.ratfn"),
    ("polynomials", "div_exact", "polynomials.divexact"),
    ("polynomials", "poly_divides", "polynomials.divides"),
)

LAYERS = ("cli", "textforms", "constructions", "independence", "measure",
          "search", "thresholds", "sets", "polynomials")

# Counted but not timed: called once per bisection step.
COUNTED = (("thresholds", "threshold_fn", "thresholds.fn_evals"),)


def _lookup(module, path: str):
    owner = module
    *parents, name = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, name, owner.__dict__[name]


PACKAGE = "geomindep"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # ----------------------------------------------------------- recording

    def _bump(self, key: str, v=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + v

    def _peak(self, key: str, v) -> None:
        if v > self.counts.get(key, 0):
            self.counts[key] = v

    def _observe(self, name: str, args, result) -> None:
        """Work counters taken at the layer boundary from arguments and results."""
        if name == "search.enumerate":
            bound = args[2]
            self._bump("search.subsets", (1 << (bound + 1)) - 1)
            self._bump("search.found", len(result))
        elif name == "sets.epset":
            self._peak("sets.max_qlen", args[0].qlen)
        elif name == "sets.combine":
            a, b = args[0], args[1]
            self._bump("sets.positions", max(a.plen, b.plen) + math.lcm(a.qlen, b.qlen))
        elif name == "constructions":
            for s in _epsets(result):
                self._peak("constructions.max_period", s.qlen)
        elif name == "polynomials.mul":
            self._poly(result)
        elif name == "polynomials.ratfn":
            self._poly(args[0].num)
            self._poly(args[0].den)
        elif name == "independence":
            self._bump("independence.conditions", len(result.conditions))
            self._bump("independence.passed", sum(c.passed for c in result.conditions))
        elif name == "textforms" and isinstance(result, str):
            self._bump("textforms.out_bytes", len(result))

    def _poly(self, p) -> None:
        cs = p.coeffs
        if cs:
            self._peak("polynomials.max_degree", len(cs) - 1)
            self._peak("polynomials.max_coeff_bits", max(max(cs), -min(cs)).bit_length())

    def _wrap(self, fn, name: str):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, child = self._stack, self._child
        spans = (self.span_name, self.span_parent, self.span_start, self.span_end)
        sp_name, sp_parent, sp_start, sp_end = spans
        self_s, calls = self.self_s, self.calls
        observe = self._observe

        def traced(*args, **kwargs):
            idx = len(sp_name)
            sp_name.append(nid)
            sp_parent.append(stack[-1] if stack else -1)
            sp_start.append(0.0)
            sp_end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s[name] = self_s.get(name, 0.0) + dur - child.pop()
                calls[name] = calls.get(name, 0) + 1
                if child:
                    child[-1] += dur
                sp_start[idx] = t0
                sp_end[idx] = t1
            observe(name, args, result)
            if child:
                # bookkeeping time is nobody's self time
                child[-1] += perf_counter() - t1
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn, key: str):
        bump = self._bump

        def counted(*args, **kwargs):
            bump(key)
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        mods = [m for n, m in sorted(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, path, name in SPANS:
            self._patch(mods, mod_name, path, lambda fn, n=name: self._wrap(fn, n))
        for mod_name, path, key in COUNTED:
            self._patch(mods, mod_name, path, lambda fn, k=key: self._counted(fn, k))

    def _patch(self, mods, mod_name: str, path: str, make) -> None:
        module = sys.modules[f"{PACKAGE}.{mod_name}"]
        owner, attr, original = _lookup(module, path)
        replacement = make(original)
        # every binding of the same object: module globals and class attributes
        for mod in mods:
            targets = [mod] + [c for c in vars(mod).values() if isinstance(c, type)
                               and c.__module__ == mod.__name__]
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, key, original, replacement))
                        setattr(target, key, replacement)
        if not any(p[3] is replacement for p in self._patches):
            raise RuntimeError(f"no binding site found for {mod_name}.{path}")

    def reset_stack(self) -> None:
        """Drop open spans left by a job that was interrupted mid-call."""
        self._stack.clear()
        self._child.clear()

    def uninstall(self) -> None:
        while self._patches:
            target, key, original, _ = self._patches.pop()
            setattr(target, key, original)

    # -------------------------------------------------------------- results

    def self_total(self) -> float:
        return sum(self.self_s.values())

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

    def write_spans(self, path, header: dict) -> None:
        """Gzipped text: a JSON header line, then one line per span,
        "name-index start end parent-index" (-1 for a root span)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "names": self.names,
                                 "columns": ["name", "start_s", "end_s", "parent"]}) + "\n")
            rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            fh.writelines("%d %.9f %.9f %d\n" % row for row in rows)


def _epsets(obj):
    """EPSets inside a construction result (a set, a tuple, or a spec dataclass)."""
    if hasattr(obj, "qlen"):
        yield obj
    elif isinstance(obj, tuple):
        for x in obj:
            yield from _epsets(x)
    elif hasattr(obj, "__dataclass_fields__"):
        for f in obj.__dataclass_fields__:
            yield from _epsets(getattr(obj, f))


# (metric, unit, how to compute from a Tracer): counts and self times are
# per traced round, since a round is the workload's fixed ladder of jobs.
def _calls(key):
    return lambda t: t.calls.get(key, 0)


def _self(key):
    return lambda t: t.self_s.get(key, 0.0)


def _count(key):
    return lambda t: t.counts.get(key, 0)


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


PER_ROUND = (
    ("search.enumerate.calls", "count/round", _calls("search.enumerate")),
    ("search.enumerate.self_s", "s/round", _self("search.enumerate")),
    ("search.subsets", "count/round", _count("search.subsets")),
    ("search.found", "count/round", _count("search.found")),
    ("search.classify.calls", "count/round", _calls("search.classify")),
    ("search.classify.self_s", "s/round", _self("search.classify")),
    ("thresholds.calls", "count/round", _calls("thresholds")),
    ("thresholds.fn_evals", "count/round", _count("thresholds.fn_evals")),
    ("sets.epset.calls", "count/round", _calls("sets.epset")),
    ("sets.epset.self_s", "s/round", _self("sets.epset")),
    ("sets.combine.calls", "count/round", _calls("sets.combine")),
    ("sets.combine.self_s", "s/round", _self("sets.combine")),
    ("sets.positions", "count/round", _count("sets.positions")),
    ("measure.at.calls", "count/round", _calls("measure.at")),
    ("measure.at.self_s", "s/round", _self("measure.at")),
    ("measure.symbolic.calls", "count/round", _calls("measure.symbolic")),
    ("measure.symbolic.self_s", "s/round", _self("measure.symbolic")),
    ("constructions.calls", "count/round", _calls("constructions")),
    ("polynomials.mul.calls", "count/round", _calls("polynomials.mul")),
    ("polynomials.mul.self_s", "s/round", _self("polynomials.mul")),
    ("polynomials.gcd.calls", "count/round", _calls("polynomials.gcd")),
    ("polynomials.gcd.self_s", "s/round", _self("polynomials.gcd")),
    ("polynomials.ratfn.calls", "count/round", _calls("polynomials.ratfn")),
    ("polynomials.ratfn.self_s", "s/round", _self("polynomials.ratfn")),
    ("polynomials.divexact.self_s", "s/round", _self("polynomials.divexact")),
    ("polynomials.divides.calls", "count/round", _calls("polynomials.divides")),
    ("independence.calls", "count/round", _calls("independence")),
    ("independence.conditions", "count/round", _count("independence.conditions")),
    ("textforms.calls", "count/round", _calls("textforms")),
    ("textforms.out_bytes", "bytes/round", _count("textforms.out_bytes")),
    ("cli.calls", "count/round", _calls("cli")),
    *((f"{layer}.self_s", "s/round", lambda t, layer=layer: t.layer_self(layer))
      for layer in LAYERS),
)

WHOLE_RUN = (
    ("search.found_ratio", "ratio", _ratio(_count("search.found"), _count("search.subsets"))),
    ("sets.max_qlen", "count", _count("sets.max_qlen")),
    ("constructions.max_period", "count", _count("constructions.max_period")),
    ("polynomials.max_degree", "count", _count("polynomials.max_degree")),
    ("polynomials.max_coeff_bits", "bits", _count("polynomials.max_coeff_bits")),
    ("independence.passed_ratio", "ratio",
     _ratio(_count("independence.passed"), _count("independence.conditions"))),
)


def layer_metrics(t: Tracer, rounds: int, traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    out = {name: (f(t) / rounds, unit) for name, unit, f in PER_ROUND}
    out.update({name: (f(t), unit) for name, unit, f in WHOLE_RUN})
    for layer in LAYERS:
        out[f"{layer}.share"] = (t.layer_self(layer) / traced_s if traced_s else 0.0, "ratio")
    # equal numbers of traced and untraced rounds of the same fixed ladder
    out["trace.overhead_ratio"] = (traced_s / untraced_s if untraced_s else 0.0, "ratio")
    out["trace.spans"] = (len(t.span_name) / rounds, "count/round")
    return out
