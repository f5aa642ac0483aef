"""Call counts and self times at the boundaries of twocopy's layers.

The tracer replaces each listed public function in every twocopy module
namespace that holds it, so calls are seen wherever the calling module
looks the name up, including calls between the package's own modules.
Self time is a call's wall time minus the time spent in nested traced calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer module -> public functions whose calls are traced
LAYERS = {
    "cli": ("main",),
    "scenarios": ("parse_config", "build_state", "run", "emit_report"),
    "states": (
        "identical_pure_copies",
        "de_finetti_state",
        "pure_de_finetti_state",
        "phase_averaged_state",
        "eve_state",
        "custom_state",
    ),
    "protocol": ("joint_outcome_distribution", "sample_outcomes", "evaluate_scenario"),
    "measures": (
        "wootters_concurrence",
        "ensemble_upper_bound_entanglement",
        "decomposition_infimum_oracle",
    ),
    "linalg": (
        "validate_density",
        "expectation_value",
        "partial_trace",
        "tensor_product",
        "permute_subsystems",
    ),
}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list[float] = []

    def wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - nested
                if stack:
                    stack[-1] += elapsed

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS; stays installed for the life of the process."""
        for layer in LAYERS:
            importlib.import_module(f"twocopy.{layer}")
        package = [m for n, m in sys.modules.items() if n == "twocopy" or n.startswith("twocopy.")]
        for layer, functions in LAYERS.items():
            module = sys.modules[f"twocopy.{layer}"]
            # the six state constructors are one span: the cost of building states
            span = "states.construct" if layer == "states" else None
            for function in functions:
                original = getattr(module, function)
                wrapped = self.wrap(span or f"{layer}.{function}", original)
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
