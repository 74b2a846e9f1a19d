"""Spans around hornlog's public functions, installed from outside ``src/``.

A module that did ``from .programs import compose`` holds its own reference,
so patching ``hornlog.programs.compose`` alone would miss its calls.  The
tracer therefore rebinds every hornlog module attribute that *is* the wrapped
function, and patches class attributes (``HornProgram.build``) on the class.

Each call records a span (name, start, end, parent span, op id) in memory;
``write`` dumps them when the run ends.  Hot leaf functions
(``match_antecedent``, ``apply_implication``, ``formula_text``, product
construction) are deliberately not wrapped: a wrapper's cost would swamp them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute path) of every wrapped function; the span name is
# "<module>.<attribute path>".
WRAPPED = (
    ("minsky", "parse_machine"),
    ("minsky", "search_halting"),
    ("minsky", "successors"),
    ("programs", "prove_bounded"),
    ("programs", "compose"),
    ("programs", "HornProgram.build"),
    ("programs", "strong_fork"),
    ("programs", "verify_strong_solution"),
    ("programs", "evaluate"),
    ("programs", "program_to_json"),
    ("encoding", "MachineEncoding.sequent"),
    ("encoding", "decode_product"),
    ("bridge", "computation_to_program"),
    ("bridge", "program_to_computation"),
    ("bridge", "round_trip_check"),
    ("ll", "ll_proof_from_json"),
    ("ll", "check_ll_proof"),
    ("ll", "push_oplus_down"),
    ("ll", "unadjacent_choice_paths"),
    ("ll", "specialize"),
    ("ll", "translate_ll_to_hll"),
    ("hll", "check_hll_proof"),
    ("hll", "compile_hll_to_program"),
    ("syntax", "parse_sequent"),
    ("syntax", "sequent_text"),
)

COMPOSE = "programs.compose"


class Tracer:
    """Records spans while installed; ``op_id`` tags the spans of one op."""

    def __init__(self):
        # (name, start, end, parent index or -1, op id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.op_id = -1
        # Vertices of every program compose returned, per op.
        self.compose_vertices: dict[int, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if name == COMPOSE:
                self.compose_vertices[self.op_id] += len(result.vertices)
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "hornlog" or key.startswith("hornlog.")]
        for module_name, path in WRAPPED:
            home = sys.modules[f"hornlog.{module_name}"]
            name = f"{module_name}.{path}"
            if "." in path:
                class_name, attr = path.split(".")
                cls = getattr(home, class_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    patched = staticmethod(self._wrap(name, raw.__func__))
                else:
                    patched = self._wrap(name, raw)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, patched)
                continue
            original = getattr(home, path)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def per_op(self) -> dict[int, dict[str, list[float]]]:
        """op id -> name -> [calls, self seconds, inclusive seconds].

        Self time is a span's duration minus its direct children's durations.
        Inclusive time counts only outermost spans of a name, so a recursive
        function's time is not counted twice.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            entry = out[op][name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[index]
            if not self._has_ancestor(index, name):
                entry[2] += end - start
        return out

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        """One tab-separated line per span: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                handle.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
