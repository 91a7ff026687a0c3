"""In-memory spans around the public functions of each levypricer layer.

Nothing here edits the package: `Tracer.install` replaces a name where its
caller looks it up (a module global or a class attribute) with a timing
wrapper and `Tracer.uninstall` puts the original back.  Wrappers only time
and count, so traced runs compute bitwise the same numbers.
"""

from __future__ import annotations

import functools
import importlib
import logging
import os
import threading
import time

# (module where the caller looks the name up, attribute path, span name).
# The span name is "<defining module>.<public name>" so that a function
# looked up from several callers shares one span name.
TARGETS = (
    ("levypricer.pide", "build_grid", "pide.build_grid"),
    ("levypricer.pide", "assemble", "pide.assemble"),
    ("levypricer.pide", "solve_american_penalty", "pide.solve_american_penalty"),
    ("levypricer.pide", "solve_european", "pide.solve_european"),
    ("levypricer.pide", "splu", "pide.splu"),
    ("levypricer.pide", "DiscreteOperator.convolve", "pide.DiscreteOperator.convolve"),
    ("levypricer.monte_carlo", "interp_level", "pide.interp_level"),
    ("levypricer.cli", "build_grid", "pide.build_grid"),
    ("levypricer.cli", "assemble", "pide.assemble"),
    ("levypricer.cli", "solve_american_penalty", "pide.solve_american_penalty"),
    ("levypricer.cli", "solve_european", "pide.solve_european"),
    ("levypricer.cli", "export_solution_csv", "pide.export_solution_csv"),
    ("levypricer.monte_carlo", "simulate_log_blocks", "model.simulate_log_blocks"),
    ("levypricer.payoffs", "Payoff.psi_minus", "payoffs.Payoff.psi_minus"),
    ("levypricer.payoffs", "Payoff.evaluate", "payoffs.Payoff.evaluate"),
    ("levypricer.premium", "premium_sweep", "monte_carlo.premium_sweep"),
    ("levypricer.cli", "price_american_ls", "monte_carlo.price_american_ls"),
    ("levypricer.cli", "price_european_mc", "monte_carlo.price_european_mc"),
    ("levypricer.premium", "premium_identity", "premium.premium_identity"),
    ("levypricer.cli", "main", "cli.main"),
)

# Per-layer metrics read from spans: (metric, span name, statistic).
SPAN_METRICS = (
    ("pide.solve_american_penalty.s", "pide.solve_american_penalty", "s"),
    ("pide.solve_american_penalty.self_s", "pide.solve_american_penalty", "self_s"),
    ("pide.splu.calls", "pide.splu", "calls"),
    ("pide.splu.s", "pide.splu", "s"),
    ("pide.DiscreteOperator.convolve.calls", "pide.DiscreteOperator.convolve", "calls"),
    ("pide.DiscreteOperator.convolve.s", "pide.DiscreteOperator.convolve", "s"),
    ("pide.solve_european.s", "pide.solve_european", "s"),
    ("pide.build_grid.s", "pide.build_grid", "s"),
    ("pide.assemble.s", "pide.assemble", "s"),
    ("pide.interp_level.calls", "pide.interp_level", "calls"),
    ("pide.interp_level.s", "pide.interp_level", "s"),
    ("pide.export_solution_csv.s", "pide.export_solution_csv", "s"),
    ("model.simulate_log_blocks.s", "model.simulate_log_blocks", "s"),
    ("payoffs.Payoff.psi_minus.calls", "payoffs.Payoff.psi_minus", "calls"),
    ("payoffs.Payoff.psi_minus.s", "payoffs.Payoff.psi_minus", "s"),
    ("payoffs.Payoff.evaluate.s", "payoffs.Payoff.evaluate", "s"),
    ("monte_carlo.premium_sweep.s", "monte_carlo.premium_sweep", "s"),
    ("monte_carlo.premium_sweep.self_s", "monte_carlo.premium_sweep", "self_s"),
    ("monte_carlo.price_american_ls.s", "monte_carlo.price_american_ls", "s"),
    ("monte_carlo.price_american_ls.self_s", "monte_carlo.price_american_ls", "self_s"),
    ("monte_carlo.price_european_mc.s", "monte_carlo.price_european_mc", "s"),
    ("premium.premium_identity.s", "premium.premium_identity", "s"),
    ("premium.premium_identity.self_s", "premium.premium_identity", "self_s"),
    ("cli.main.s", "cli.main", "s"),
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class ShrinkCounter(logging.Handler):
    """Counts the LSMC degree-shrink warnings of `levypricer.monte_carlo`."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def route_mc_warnings() -> ShrinkCounter:
    """Send `levypricer.monte_carlo` warnings to a counter instead of stderr."""
    counter = ShrinkCounter()
    logger = logging.getLogger("levypricer.monte_carlo")
    logger.addHandler(counter)
    logger.propagate = False
    return counter


class Tracer:
    """Records spans (name, start, end, parent, job) and per-span counters."""

    def __init__(self):
        self.spans: list[tuple] = []    # (name, start, end, parent index, job id)
        self.counts: dict[tuple, float] = {}   # (job id, counter) -> value
        self.job = None
        # Each thread keeps its own span stack, so that wrapped functions
        # called from worker threads do not corrupt the parents of the main
        # thread; a span started on another thread has no parent.
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    # -- span recording --------------------------------------------------- #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               stack[-1] if stack else -1, self.job])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def add(self, counter: str, value: float) -> None:
        key = (self.job, counter)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    # -- wrappers --------------------------------------------------------- #
    def _wrap(self, name: str, fn):
        tracer = self

        if name == "model.simulate_log_blocks":
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer.begin(name)
                    try:
                        lo, block = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(idx)
                    tracer.add("model.simulate_log_blocks.path_steps",
                               block.shape[0] * (block.shape[1] - 1))
                    yield lo, block
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)
                if name == "pide.export_solution_csv":
                    tracer.add("pide.export_solution_csv.bytes", os.path.getsize(args[1]))
        return wrapper

    def install(self) -> None:
        wrapped = {}
        for module_name, path, name in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            key = id(original)
            if key not in wrapped:
                wrapped[key] = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped[key])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------- #
    def per_job(self) -> dict:
        """{job id: {span name: {"calls", "s", "self_s"}}} from recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            stat = out.setdefault(job, {}).setdefault(name, {"calls": 0, "s": 0.0,
                                                             "self_s": 0.0})
            stat["calls"] += 1
            stat["s"] += end - start
            stat["self_s"] += (end - start) - child_time[i]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,job,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i},{job},{name},{start:.9f},{end:.9f},{parent}\n")
