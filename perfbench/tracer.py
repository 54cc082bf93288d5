"""In-process spans around the layer boundaries of fracadm, from outside `src/`.

`Tracer.install()` replaces every binding of each function in `WRAPPED`
across the loaded `fracadm.*` modules (and their classes) with a wrapper
that records a span: name, start, end, parent span and CLI call id, plus
up to two counts taken from the arguments or the result.  It then fails
loudly if any original is still reachable.  Spans stay in memory;
`layer_metrics` turns them into self times (span minus child spans) and
counts.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
from time import perf_counter


def _normalize_args(args):
    # materialize the generator outside the span: building the raw product
    # terms is the caller's work (e.g. FracSeries.mul), not normalization's
    terms = list(args[0])
    return (terms,), len(terms)


def _first_arg_terms(args):
    return args, len(args[0].terms)


def _product_terms(args):
    return args, len(args[0].terms) * len(args[1].terms)


# name -> (module, attribute path, before(args) -> (args, count_a), after(result) -> count_b)
WRAPPED = {
    "cli.run": ("fracadm.cli", "run", None, None),
    "cli.parse_grid": ("fracadm.cli", "parse_grid", None, lambda r: len(r[0]) * len(r[1])),
    "parser.parse_series": ("fracadm.parser", "parse_series", None, None),
    "problems.make_table": ("fracadm.problems", "make_table", None, None),
    "problems.truncation_scan": ("fracadm.problems", "truncation_scan", None, None),
    "adm.solve": ("fracadm.adm", "solve", None, lambda r: len(r.components)),
    # FracSeries(...) construction is _normalize
    "series.normalize": ("fracadm.series", "_normalize", _normalize_args, len),
    "series.add": ("fracadm.series", "FracSeries.__add__", None, None),
    "series.mul": ("fracadm.series", "FracSeries.mul", _product_terms, None),
    "series.evaluate": ("fracadm.series", "FracSeries.evaluate", _first_arg_terms, None),
    "series.caputo_deriv": ("fracadm.series", "caputo_deriv", None, None),
    "series.rl_integral": ("fracadm.series", "rl_integral", None, None),
    "gammafn.gamma_ratio": ("fracadm.gammafn", "gamma_ratio", None, None),
}

# span record fields
NAME, START, END, PARENT, CALL, COUNT_A, COUNT_B, ERROR = range(8)


def _fracadm_namespaces():
    """(owner, namespace dict) for every loaded fracadm module and its classes."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "fracadm" or name.startswith("fracadm.")):
            continue
        yield module, vars(module)
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value, vars(value)


class Tracer:
    def __init__(self):
        self.names = list(WRAPPED)
        self.spans: list[list] = []
        self.call_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, index, fn, before, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count_a = 0
            if before is not None:
                args, count_a = before(args)
            record = [index, 0.0, 0.0, stack[-1] if stack else -1, self.call_id, count_a, 0, False]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[ERROR] = True
                raise
            finally:
                record[END] = perf_counter()
                stack.pop()
            if after is not None:
                record[COUNT_B] = after(result)
            return result

        return wrapper

    def install(self) -> None:
        originals = {}
        for index, (name, (module, path, before, after)) in enumerate(WRAPPED.items()):
            owner = sys.modules[module]
            for part in path.split("."):
                owner = vars(owner)[part] if isinstance(owner, type) else getattr(owner, part)
            originals[id(owner)] = (name, owner, self._wrap(index, owner, before, after))
        for owner, namespace in _fracadm_namespaces():
            for key, value in list(namespace.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[1] is value:
                    setattr(owner, key, hit[2])
                    self._patches.append((owner, key, value))
        leaks = _find_unwrapped({i: o for i, (_, o, _) in originals.items()})
        if leaks:
            self.uninstall()
            raise RuntimeError("wrapped functions still reachable unwrapped: " + ", ".join(leaks))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start", "end", "parent", "call", "count_a", "count_b", "error"])
            for s in self.spans:
                out.writerow([self.names[s[NAME]], repr(s[START]), repr(s[END]), *s[PARENT:]])


def _find_unwrapped(originals: dict) -> list[str]:
    """Where an original is still bound: namespaces and containers inside them."""
    leaks = []
    for owner, namespace in _fracadm_namespaces():
        for key, value in namespace.items():
            if key == "__builtins__":
                continue
            inner = ()
            if isinstance(value, dict):
                inner = value.values()
            elif isinstance(value, (list, tuple, set, frozenset)):
                inner = value
            for item in (value, *inner):
                if id(item) in originals and originals[id(item)] is item:
                    leaks.append(f"{getattr(owner, '__qualname__', owner.__name__)}.{key}")
    return leaks


def layer_metrics(names: list[str], spans: list[list], n_calls: int) -> dict[str, float]:
    """Per-CLI-call self times and counts, plus per-scan ratios."""
    index = {name: i for i, name in enumerate(names)}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    self_s = [0.0] * len(names)
    calls = [0] * len(names)
    count_a = [0] * len(names)
    count_b = [0] * len(names)
    errors = [0] * len(names)
    scan_solves = scan_components = 0
    scan, solve = index["problems.truncation_scan"], index["adm.solve"]
    for i, s in enumerate(spans):
        k = s[NAME]
        self_s[k] += s[END] - s[START] - child_time[i]
        calls[k] += 1
        count_a[k] += s[COUNT_A]
        count_b[k] += s[COUNT_B]
        errors[k] += s[ERROR]
        if k == solve:
            parent = s[PARENT]
            while parent >= 0 and spans[parent][NAME] != scan:
                parent = spans[parent][PARENT]
            if parent >= 0:
                scan_solves += 1
                scan_components += s[COUNT_B]

    def per_call(values, name):
        return values[index[name]] / n_calls

    scans = calls[scan]
    normalize = index["series.normalize"]
    return {
        "series.normalize_s": per_call(self_s, "series.normalize"),
        "series.normalize_calls": per_call(calls, "series.normalize"),
        "series.normalize_terms_in": per_call(count_a, "series.normalize"),
        "series.normalize_terms_out": per_call(count_b, "series.normalize"),
        "series.normalize_keep_ratio": count_b[normalize] / max(count_a[normalize], 1),
        "series.add_calls": per_call(calls, "series.add"),
        "series.mul_s": per_call(self_s, "series.mul"),
        "series.mul_calls": per_call(calls, "series.mul"),
        "series.mul_terms": per_call(count_a, "series.mul"),
        "series.caputo_deriv_s": per_call(self_s, "series.caputo_deriv"),
        "series.caputo_deriv_calls": per_call(calls, "series.caputo_deriv"),
        "series.rl_integral_s": per_call(self_s, "series.rl_integral"),
        "series.rl_integral_calls": per_call(calls, "series.rl_integral"),
        "gammafn.gamma_ratio_s": per_call(self_s, "gammafn.gamma_ratio"),
        "gammafn.gamma_ratio_calls": per_call(calls, "gammafn.gamma_ratio"),
        "adm.solve_s": per_call(self_s, "adm.solve"),
        "adm.solve_calls": per_call(calls, "adm.solve"),
        "adm.components": per_call(count_b, "adm.solve"),
        "adm.solve_fail": per_call(errors, "adm.solve"),
        "problems.truncation_scan_s": per_call(self_s, "problems.truncation_scan"),
        "problems.solves_per_scan": scan_solves / scans if scans else 0.0,
        "problems.components_per_scan": scan_components / scans if scans else 0.0,
        "problems.make_table_s": per_call(self_s, "problems.make_table"),
        "series.evaluate_s": per_call(self_s, "series.evaluate"),
        "series.evaluate_calls": per_call(calls, "series.evaluate"),
        "series.evaluate_term_visits": per_call(count_a, "series.evaluate"),
        "cli.self_s": per_call(self_s, "cli.run"),
        "cli.parse_grid_s": per_call(self_s, "cli.parse_grid"),
        "cli.grid_points": per_call(count_b, "cli.parse_grid"),
        "parser.parse_series_s": per_call(self_s, "parser.parse_series"),
    }
