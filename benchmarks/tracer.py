"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces each traced function of ``umbral`` with a
wrapper: the module attribute, every ``from``-import binding of it in the
other ``umbral`` modules, and for methods every class attribute bound to
the same function (``__rmul__ = __mul__``).  ``uninstall`` puts the
originals back.  Nothing in the package changes on disk, and the untraced
runs never install it.

For each function the wrapper counts calls and accumulates inclusive
time and self time, the inclusive time minus the part covered by traced
callees.  Counts are exact and repeat for the same seed.  While
``phase`` is set (the order N of the running job), calls and inclusive
time are also kept per phase for the growth exponents.
"""

from __future__ import annotations

import sys
import time

# (module, qualified name) of each traced function; a method is Class.method
# and is recorded under its short name (Polynomial.__mul__ -> Polynomial.mul)
LAYERS = {
    "rationals": ("binomial", "falling_factorial"),
    "polynomials": ("Polynomial.__mul__",),
    "series": ("multiply", "exp", "log", "power", "compose", "revert"),
    "umbra": (
        "add",
        "dot_scalar",
        "dot",
        "composition_umbra",
        "k_umbra",
        "inverse_umbra",
        "from_series",
        "gf",
    ),
    "symbolic": (
        "UmbralPolynomial.__mul__",
        "UmbralPolynomial.__pow__",
        "UmbralPolynomial.evaluate",
        "abel_expression",
    ),
    "sheffer": (
        "riordan_array",
        "riordan_entries_series",
        "sheffer_sequence",
        "abel_representation",
        "umbral_compose",
        "riordan_multiply",
        "riordan_inverse",
        "ftra_apply",
    ),
    "families": ("master_polynomial", "gf_oracle"),
    "cli": ("build_umbra", "render_umbra", "render_matrix", "render_polys"),
}

# series functions whose calls on Polynomial coefficients are also counted
# apart, as series.<name>.poly
POLY_SPLIT = ("multiply", "exp", "log", "power")


def metric_name(module: str, qualname: str) -> str:
    cls, _, attr = qualname.rpartition(".")
    attr = attr.strip("_")
    return f"{module}.{cls}.{attr}" if cls else f"{module}.{attr}"


def traced_names():
    return [metric_name(m, q) for m, quals in LAYERS.items() for q in quals] + [
        f"series.{name}.poly" for name in POLY_SPLIT
    ]


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = {name: _Stat() for name in traced_names()}
        self.by_phase = {}  # (name, phase) -> [calls, inclusive seconds]
        self.phase = None
        self._stack = [0.0]  # time covered by traced callees, per open frame
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn, poly_stat=None):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        is_poly = _poly_test() if poly_stat else None

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - inner
                stat.incl_s += elapsed
                if poly_stat is not None and is_poly(args):
                    poly_stat.calls += 1
                    poly_stat.self_s += elapsed - inner
                    poly_stat.incl_s += elapsed
                if self.phase is not None:
                    entry = self.by_phase.setdefault((name, self.phase), [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "umbral" or key.startswith("umbral.")]
        for module_name, quals in LAYERS.items():
            module = sys.modules[f"umbral.{module_name}"]
            for qual in quals:
                name = metric_name(module_name, qual)
                cls_name, _, attr = qual.rpartition(".")
                split = attr in POLY_SPLIT and module_name == "series"
                poly_stat = self.stats[f"{name}.poly"] if split else None
                if cls_name:
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    wrapper = self._wrap(name, original)
                    owners = [cls]
                else:
                    original = getattr(module, attr)
                    wrapper = self._wrap(name, original, poly_stat)
                    owners = modules
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            self._patches.append((owner, key, original))
                            setattr(owner, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def per_call(self, name: str, phase) -> float:
        calls, seconds = self.by_phase.get((name, phase), (0, 0.0))
        return seconds / calls if calls else 0.0


def _poly_test():
    """True when a series call works on Polynomial coefficients."""
    from umbral.polynomials import Polynomial

    def is_poly(args):
        return any(
            isinstance(arg, Polynomial)
            or any(isinstance(c, Polynomial) for c in getattr(arg, "coeffs", ()))
            for arg in args
        )

    return is_poly
