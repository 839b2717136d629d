"""The benchmark's workloads: fixed sequences of pinnbands experiment cells.

A cell is one ``harness.run_experiment`` call followed by
``harness.emit_outputs``.  A workload fixes the cells and their budgets; the
only input that varies between runs is the seed, which every cell receives as
``ExperimentConfig.seed`` (network initialisation, collocation jitter, VI
draws).  The same seed therefore gives the same inputs and, by the package's
reproducibility contract, byte-identical output files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

ERROR_AWARE = ("error_aware_nlm", "error_aware_vi")
VI_METHODS = ("error_aware_vi", "baseline_vi")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: tuple          # (problem id, method) pairs, run in this order
    budget: dict          # ExperimentConfig overrides shared by every cell

    def configs(self, seed: int):
        """One ``ExperimentConfig`` per cell, all built from ``seed``."""
        from pinnbands.harness import ExperimentConfig

        return [
            ExperimentConfig(problem=p, method=m, seed=int(seed), **self.budget)
            for p, m in self.cells
        ]

    def det_epochs(self) -> int:
        return self.budget["det_epochs"] * len(self.cells)

    def vi_epochs(self) -> int:
        return self.budget.get("vi_epochs", 0) * sum(m in VI_METHODS for _, m in self.cells)

    def scaled(self, **budget):
        """The same cells with some budget entries replaced (self-tests)."""
        return replace(self, budget={**self.budget, **budget})


WORKLOADS = {
    w.name: w
    for w in (
        # Desk-preset training at M=32: Python per-step overhead of the jet
        # forward pass, backward pass and Adam dominates; the NLM head is a
        # few percent and VI is absent.  Covers three of the four bound
        # kernels and, with ode1.logsing, the infinite-envelope path.
        Workload(
            name="ode_desk",
            why="desk NLM cells at M=32: per-step overhead of training dominates; VI is absent",
            cells=tuple(
                (p, "error_aware_nlm")
                for p in ("ode1.exp", "ode1.cos", "ode2.harmonic.exp",
                          "ode2.damped.exp", "ode1.logsing")
            ),
            budget={"det_epochs": 1000, "grid_points": 401},
        ),
        # The paper's underfit regime (10 training epochs) and the coverage
        # contrast between error-aware and baseline VI.  VI dominates: the
        # per-epoch ELBO step and evaluation draws, then 1000 posterior draws
        # through predictive_moments.  Error-aware VI runs the network
        # values-only, baseline VI with jets.
        Workload(
            name="ode_vi",
            why="underfit VI cells: the VI loop, posterior sampling and predictive moments dominate",
            cells=tuple(
                (p, m) for p in ("ode1.exp", "ode2.damped.exp") for m in VI_METHODS
            ),
            budget={"det_epochs": 10, "vi_epochs": 500, "grid_points": 401,
                    "n_posterior_samples": 1000},
        ),
        # Large-batch, memory-bound use of the same network layer: M=2500
        # rows with two tracked coordinates per training step, and 160000-row
        # jets in burgers_sigma_grid / pseudo_profile.  The only workload on
        # which a batching change that helps ode_vi shows up as a
        # peak_rss_mb regression.
        Workload(
            name="burgers_small",
            why="reduced Burgers VI cell: 2500-row training steps and 160000-row residual jets, memory-bound",
            cells=(("burgers", "error_aware_vi"),),
            budget={"det_epochs": 20, "vi_epochs": 20, "burgers_grid": (50, 50),
                    "burgers_time_samples": 64, "n_posterior_samples": 1000},
        ),
    )
}
