"""Outside-in spans around rauzycert's public functions.

``Tracer.install`` replaces every public function of each rauzycert module
by a wrapper that records a span (name, start, end, parent span, operation
id), in the defining module and in every module that imported the function
by name, and patches the few methods that carry the hot paths on their
classes.  Nothing in the program's source changes.  Spans are kept in
compact arrays and written out once, when the run ends; self times and
counters are summed as the spans close.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

MODULES = ("perm", "surface", "induction", "diagram", "linalg", "pa", "fg", "penner",
           "jsonutil", "cli")

# Methods that carry a layer's work, with their span names.
METHODS = (
    ("linalg", "IntMatrix", "__mul__", "linalg.matmul"),
    ("linalg", "IntMatrix", "__pow__", "linalg.matpow"),
    ("diagram", "RauzyDiagram", "successor", "diagram.successor"),
    ("diagram", "RauzyDiagram", "to_json_dict", "diagram.to_json_dict"),
    ("diagram", "AllowedPath", "__init__", "diagram.AllowedPath"),
)


def _layer(self_s: dict[str, float], module: str) -> float:
    """Self time of every span of one module."""
    return sum((v for k, v in self_s.items() if k.startswith(module + ".")), 0.0)


def _bracket_bits(bracket) -> int:
    return max(x.bit_length() for f in (bracket.low, bracket.high)
               for x in (f.numerator, f.denominator))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        self._stack: list[list] = []  # [span index, child time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.distinct_paths: set = set()  # (operation, start, moves)
        self.distinct_matrices: set = set()  # (operation, matrix)
        self._undo: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- spans

    def _wrap(self, name: str, fn, observe=None):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            self.span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[index] = end
                duration = end - start
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observers(self):
        """Counters read from the arguments and results of some spans."""
        counters = self.counters

        def spectral(args, bracket):
            counters["linalg.spectral_radius.iterations"] += bracket.iterations
            bits = _bracket_bits(bracket)
            if bits > counters["linalg.spectral_radius.bracket_bits"]:
                counters["linalg.spectral_radius.bracket_bits"] = bits

        def path(args, _):
            self.distinct_paths.add((self.op, args[0].start, args[0].moves))

        def matrix(args, _):
            self.distinct_matrices.add((self.op, args[0]))

        def explored(args, diagram):
            counters["diagram.explore.vertices"] += len(diagram)

        def built(args, _):
            counters["diagram.AllowedPath.moves"] += len(args[0].moves)

        return {
            "linalg.spectral_radius": spectral,
            "linalg.path_matrix": path,
            "linalg.min_positive_power": matrix,
            "diagram.explore": explored,
            "diagram.AllowedPath": built,
        }

    # -------------------------------------------------------------- install

    def install(self) -> None:
        """Patch the loaded rauzycert modules; ``uninstall`` restores them."""
        package = [m for key, m in sys.modules.items() if key.split(".")[0] == "rauzycert"]
        observers = self._observers()
        originals = {}
        for short in MODULES:
            module = sys.modules["rauzycert." + short]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")
                        and not (short == "cli" and attr != "main")):
                    name = "%s.%s" % (short, attr)
                    originals[obj] = self._wrap(name, obj, observers.get(name))
        for module in package:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, originals[obj])
        for short, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules["rauzycert." + short], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, observers.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -------------------------------------------------------------- results


    def metrics(self, stdout_bytes: int, overhead_ratio: float,
                scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value, unit); self times are multiplied
        by ``scale``, the reference factor of the traced round."""
        s = defaultdict(float, {name: t * scale for name, t in self.self_s.items()})
        c = self.calls
        paths = len(self.distinct_paths)
        matrices = len(self.distinct_matrices)
        return {
            "linalg.path_matrix.self_s": (s["linalg.path_matrix"], "s"),
            "linalg.path_matrix.calls": (c["linalg.path_matrix"], "count"),
            "linalg.path_matrix.per_path": (c["linalg.path_matrix"] / paths if paths else 0.0,
                                            "calls/path"),
            "linalg.matmul.self_s": (s["linalg.matmul"], "s"),
            "linalg.matmul.calls": (c["linalg.matmul"], "count"),
            "linalg.matpow.self_s": (s["linalg.matpow"], "s"),
            "linalg.spectral_radius.self_s": (s["linalg.spectral_radius"], "s"),
            "linalg.spectral_radius.calls": (c["linalg.spectral_radius"], "count"),
            "linalg.spectral_radius.iterations": (
                self.counters["linalg.spectral_radius.iterations"], "count"),
            "linalg.spectral_radius.bracket_bits": (
                self.counters["linalg.spectral_radius.bracket_bits"], "bits"),
            "linalg.min_positive_power.self_s": (s["linalg.min_positive_power"], "s"),
            "linalg.min_positive_power.calls": (c["linalg.min_positive_power"], "count"),
            "linalg.min_positive_power.per_matrix": (
                c["linalg.min_positive_power"] / matrices if matrices else 0.0, "calls/matrix"),
            "diagram.explore.self_s": (s["diagram.explore"], "s"),
            "diagram.explore.vertices": (self.counters["diagram.explore.vertices"], "count"),
            "perm.is_irreducible.calls": (c["perm.is_irreducible"], "count"),
            "diagram.successor.calls": (c["diagram.successor"], "count"),
            "diagram.export.self_s": (s["diagram.to_json_dict"] + s["diagram.to_dot"], "s"),
            "cli.main.self_s": (s["cli.main"], "s"),
            "cli.stdout_bytes": (stdout_bytes, "bytes"),
            "jsonutil.self_s": (_layer(s, "jsonutil"), "s"),
            "diagram.AllowedPath.self_s": (s["diagram.AllowedPath"], "s"),
            "diagram.AllowedPath.moves": (self.counters["diagram.AllowedPath.moves"], "count"),
            "induction.self_s": (_layer(s, "induction"), "s"),
            "induction.apply_move.calls": (c["induction.apply_move"], "count"),
            "induction.edge_matrix.calls": (c["induction.edge_matrix"], "count"),
            "perm.self_s": (_layer(s, "perm"), "s"),
            "surface.glue.self_s": (s["surface.glue"], "s"),
            "surface.glue.calls": (c["surface.glue"], "count"),
            "pa.certify.self_s": (s["pa.certify"], "s"),
            "pa.certify.calls": (c["pa.certify"], "count"),
            "pa.certificate_to_json.self_s": (s["pa.certificate_to_json"], "s"),
            "fg.family_report.self_s": (s["fg.family_report"], "s"),
            "fg.central_component_checks.self_s": (s["fg.central_component_checks"], "s"),
            "penner.self_s": (_layer(s, "penner"), "s"),
            "penner.verify_power_identity.calls": (c["penner.verify_power_identity"], "count"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }

    def write(self, path) -> None:
        """All spans as one gzipped JSON document of parallel columns."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            json.dump({
                "names": self.names,
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "op": self.span_op.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            }, out)
