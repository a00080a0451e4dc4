"""Span tracing of clsat's layers, done from outside the package.

While a Tracer is installed it replaces each traced function with a wrapper
at the place its callers look it up: a module attribute (the engine calls
`conflict.build_conflict_graph` through the module, the proof transforms call
`proofs.normalize_refutation` through the module globals) or a class
attribute (`Solver.propagate` is looked up on the class at every call). The
wrappers keep spans in memory as parallel arrays: name, start, end, parent
span and operation id. Counts are read from the values the wrapped functions
return, at the same boundary. A learned clause is a `cut_to_clause` result
the engine asks for itself (FirstNewCut and the derivation check call it
too, from inside the conflict layer); its derivation is the next
`extract_trivial_derivation` call, which leaves out the derivation of the
final level-zero conflict. `uninstall` puts every original back.

Self time is a span's duration minus the durations of its direct children.
Spans are timed with the wall clock (perf_counter), which is cheaper to read
than the process CPU clock the end-to-end metrics use.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import defaultdict
from time import perf_counter

# (owner module, owner class or None, attribute, span name); the span name's
# prefix is the layer
TRACED = (
    ("clsat.engine", "Solver", "__init__", "engine.init"),
    ("clsat.engine", "Solver", "solve", "engine.solve"),
    ("clsat.engine", "Solver", "propagate", "engine.propagate"),
    ("clsat.engine", "Solver", "backjump", "engine.backjump"),
    ("clsat.conflict", None, "build_conflict_graph", "conflict.graph"),
    ("clsat.conflict", None, "scheme_first_uip", "conflict.scheme"),
    ("clsat.conflict", None, "scheme_decision", "conflict.scheme"),
    ("clsat.conflict", None, "scheme_relsat", "conflict.scheme"),
    ("clsat.conflict", None, "scheme_first_new_cut", "conflict.scheme"),
    ("clsat.conflict", None, "cut_to_clause", "conflict.cut_to_clause"),
    ("clsat.conflict", None, "extract_trivial_derivation", "conflict.derivation"),
    ("clsat.proofs", None, "cl_to_res", "proofs.convert"),
    ("clsat.proofs", None, "check_res_refutation", "proofs.check"),
    ("clsat.proofs", None, "check_trivial", "proofs.trivial"),
    ("clsat.proofs", None, "derivation_to_proof", "proofs.trivial"),
    ("clsat.proofs", "UnitPropagationChecker", "add_clause", "proofs.rup"),
    ("clsat.proofs", "UnitPropagationChecker", "conflicts_when_all_false", "proofs.rup"),
    ("clsat.proofs", None, "normalize_refutation", "proofs.normalize"),
    ("clsat.proofs", None, "proof_trace_extension", "proofs.ptx"),
    ("clsat.proofs", None, "replay_extended_sequence", "proofs.replay"),
    ("clsat.proofs", None, "parse_proof", "proofs.io"),
    ("clsat.proofs", None, "write_proof", "proofs.io"),
    ("clsat.generators", None, "gen_grid", "generators.gen"),
    ("clsat.generators", None, "gen_random_pebbling", "generators.gen"),
    ("clsat.generators", None, "gen_gtn", "generators.gen"),
    ("clsat.generators", None, "pebbling_to_cnf", "generators.gen"),
    ("clsat.generators", None, "make_satisfiable", "generators.gen"),
    ("clsat.seqgen", None, "peb_seq_1uip", "seqgen.seq"),
    ("clsat.seqgen", None, "gtn_seq", "seqgen.seq"),
    ("clsat.formula", None, "parse_dimacs", "formula.parse"),
    ("clsat.formula", None, "write_dimacs", "formula.write"),
    ("clsat.bench", None, "run_case", "bench.run_case"),
)

LAYERS = ("engine", "conflict", "proofs", "generators", "seqgen", "formula", "bench")

# the benchmark's own root span around each operation; its self time is the
# harness plus clsat code that no traced function covers
OP_SPAN = "op"


class Tracer:
    def __init__(self, modules):
        self._modules = modules  # module name -> module object
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.maxima: defaultdict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []
        self._learned_pending = False

    # ------------------------------------------------------------- spans
    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, on_result):
        nid = self._nid(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                starts[i] = t0
                stack.pop()
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    # ------------------------------------------------------------ counts
    def _on_graph(self, g, _args) -> None:
        self.counts["conflict.nodes"] += len(g.nodes)

    def _on_first_new_cut(self, result, _args) -> None:
        if result[1]:
            self.counts["conflict.redundant"] += 1

    def _on_clause(self, clause, _args) -> None:
        stack = self._stack  # the caller's span is on top again
        if stack and self.names[self.name[stack[-1]]].startswith("conflict."):
            return
        n = len(clause)
        self.counts["conflict.learned"] += 1
        self.counts["conflict.learned_len_sum"] += n
        if n > self.maxima["conflict.learned_len_max"]:
            self.maxima["conflict.learned_len_max"] = n
        self._learned_pending = True

    def _on_derivation(self, d, _args) -> None:
        if self._learned_pending:
            self.counts["conflict.derivation_steps"] += len(d.steps)
            self._learned_pending = False

    def _on_convert(self, proof, args) -> None:
        self.counts["proofs.steps"] += proof.size
        self.counts["proofs.converted_records"] += len(args[0])

    def _on_formula(self, formula, _args) -> None:
        self.counts["generators.clauses"] += formula.size

    def _on_sequence(self, seq, _args) -> None:
        self.counts["seqgen.entries"] += len(seq.entries)

    def _hooks(self) -> dict:
        """Count readers by traced attribute name."""
        return {
            "build_conflict_graph": self._on_graph,
            "scheme_first_new_cut": self._on_first_new_cut,
            "cut_to_clause": self._on_clause,
            "extract_trivial_derivation": self._on_derivation,
            "cl_to_res": self._on_convert,
            "pebbling_to_cnf": self._on_formula,
            "gen_gtn": self._on_formula,
            "make_satisfiable": self._on_formula,
            "peb_seq_1uip": self._on_sequence,
            "gtn_seq": self._on_sequence,
        }

    # ------------------------------------------------------ install/remove
    def install(self) -> None:
        hooks = self._hooks()
        for mod, cls, attr, span in TRACED:
            owner = self._modules[mod]
            if cls is not None:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr] if cls is not None else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, hooks.get(attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- analysis
    def by_kind(self, op_kinds: dict[int, str]) -> dict[str, dict[str, list[float]]]:
        """Per operation kind and span name: [calls, inclusive seconds, self
        seconds]. op_kinds maps operation ids to kinds; spans outside every
        operation are filed under "setup"."""
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        own = array("d", dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        out: dict[str, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0, 0.0])
        )
        names = self.names
        for i, nid in enumerate(self.name):
            acc = out[op_kinds.get(self.op[i], "setup")][names[nid]]
            acc[0] += 1
            acc[1] += dur[i]
            acc[2] += own[i]
        return out

    def write(self, path, header: dict, ops: range) -> None:
        """Write the spans of the given operations, one tab-separated line
        each, after a JSON header. Times are seconds from the first span."""
        with open(path, "w") as out:
            out.write("# " + json.dumps(header, sort_keys=True) + "\n")
            out.write("span\tname\tparent\top\tstart\tend\n")
            t0 = self.start[0] if len(self.start) else 0.0
            names = self.names
            for i, nid in enumerate(self.name):
                if self.op[i] in ops:
                    out.write(
                        f"{i}\t{names[nid]}\t{self.parent[i]}\t{self.op[i]}\t"
                        f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                    )


def layer_of(span: str) -> str:
    return "harness" if span == OP_SPAN else span.split(".", 1)[0]
