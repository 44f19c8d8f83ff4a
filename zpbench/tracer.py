"""Span tracer that wraps zpscan's public functions from outside the package.

zpscan modules import each other's functions by name (``exactpoly`` holds its
own ``polyroots`` binding, ``scanner`` holds ``detect_cm`` and
``mahler_height``, ``cli`` holds ``detect_cm`` and ``recognize_quadratic``),
so wrapping a function means rebinding every module-level alias of it in every
loaded ``zpscan`` module.  ``uninstall`` puts the originals back.

A span records its name, start, end, parent and the phase it ran in (the
set-up or a round number).  Spans stay in memory and are written once, at the
end of the run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import mpmath as mp

#: the wrapped functions, by module; each gives <module>.<function>.calls/.s/.self_s
LAYERS = {
    "analytic": ["polyroots", "eisenstein", "j_invariant"],
    "periods": ["full_period_matrix", "reduce_tau", "detect_cm"],
    "isogeny": ["make_witness", "recognize_quadratic"],
    "modular": ["phi_recover_exact", "phi_specialize", "phi_eval_numeric"],
    "exactpoly": ["gcd", "resultant", "squarefree", "mahler_height"],
    "scanner": [
        "unlikely_points",
        "stratum_poly",
        "coordinate_value_poly",
        "invert_j",
        "soundness_residual",
    ],
    "relations": [
        "synth_first_way",
        "synth_second_way",
        "synth_four_coordinate",
        "genuine_second_way",
        "build_polynomial",
    ],
    "polyrel": ["not_in_I0", "evaluate"],
    "cli": ["main", "build_parser"],
    "serialize": ["dumps"],
}


def _coeff_bits(coeffs) -> int:
    return max((int(mp.mag(c)) for c in coeffs if c != 0), default=0)


# counters read from arguments or return values: name -> fn(args, result) -> info
_OBSERVERS = {
    "analytic.polyroots": lambda args, res: (len(args[0]) - 1, _coeff_bits(args[0])),
    "periods.detect_cm": lambda args, res: res is not None,
    "isogeny.recognize_quadratic": lambda args, res: res is not None,
    "scanner.invert_j": lambda args, res: res is None,
    "polyrel.not_in_I0": lambda args, res: res.attempts_used,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, phase, info]
        self.phase = "setup"
        self._stack = []
        self._bindings = []  # (module, attribute, original, wrapper)

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [len(spans), name, clock(), None, stack[-1] if stack else None, self.phase, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                span[6] = observe(args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Rebind every alias of every LAYERS function in the loaded zpscan modules."""
        if self._bindings:
            return
        modules = [m for n, m in sys.modules.items() if m is not None and (n == "zpscan" or n.startswith("zpscan."))]
        for modname, names in LAYERS.items():
            home = sys.modules[f"zpscan.{modname}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{modname}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._bindings.append((mod, attr, original, wrapper))

    def uninstall(self):
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)
        self._bindings = []

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self, rounds) -> dict:
        """Per-layer figures of one cold pass: the traced set-up plus one round.

        Calls add the set-up's to the last traced round's (at least one
        untraced round runs first, so in-process caches are warm); times add
        the set-up's to the median over the traced rounds.
        """
        self_time = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] is not None:
                self_time[s[4]] -= s[3] - s[2]
        phases = {"setup", *rounds}
        per = {}  # (name, phase) -> [calls, inclusive, self]
        for s, own in zip(self.spans, self_time):
            acc = per.setdefault((s[1], s[5]), [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += s[3] - s[2]
            acc[2] += own
        metrics = {}
        for modname, names in LAYERS.items():
            for fname in names:
                name = f"{modname}.{fname}"
                setup = per.get((name, "setup"), [0, 0.0, 0.0])
                by_round = [per.get((name, r), [0, 0.0, 0.0]) for r in rounds]
                metrics[f"{name}.calls"] = (setup[0] + by_round[-1][0], "count")
                metrics[f"{name}.s"] = (setup[1] + statistics.median([r[1] for r in by_round]), "s")
                metrics[f"{name}.self_s"] = (setup[2] + statistics.median([r[2] for r in by_round]), "s")
        infos = {}
        for s in self.spans:
            if s[6] is not None and s[5] in phases:
                infos.setdefault(s[1], []).append(s[6])
        roots = infos.get("analytic.polyroots", [])
        metrics["analytic.polyroots.max_degree"] = (max((d for d, _ in roots), default=0), "count")
        metrics["analytic.polyroots.max_coeff_bits"] = (max((b for _, b in roots), default=0), "bits")
        for name, label in (
            ("periods.detect_cm", "hit_ratio"),
            ("isogeny.recognize_quadratic", "hit_ratio"),
            ("scanner.invert_j", "fail_ratio"),
        ):
            seen = infos.get(name, [])
            metrics[f"{name}.{label}"] = (sum(seen) / len(seen) if seen else 0.0, "ratio")
        attempts = infos.get("polyrel.not_in_I0", [])
        metrics["polyrel.not_in_I0.attempts_mean"] = (
            sum(attempts) / len(attempts) if attempts else 0.0,
            "count",
        )
        return metrics

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, phase, _ in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent, "phase": phase}))
                fh.write("\n")

