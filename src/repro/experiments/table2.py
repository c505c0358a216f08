"""Table 2: the synthetic experiment for travel groups (Section 4.3.2).

Reports min-max-normalized representativity (R), cohesiveness (C) and
personalization (P), averaged over the sweep's groups, per consensus
method x group uniformity x group size.  Also reproduces the section's
supporting statistics: the one-way ANOVA validating that consensus
methods differ on each dimension, and the PCC trends of Section 4.3.3
(uniform groups' cohesiveness rising and personalization falling with
group size).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.context import ExperimentContext
from repro.experiments.reporting import format_table, pct
from repro.experiments.synthetic_sweep import (
    CONSENSUS_METHODS,
    SweepResult,
    run_sweep,
)
from repro.stats.anova import AnovaResult, one_way_anova
from repro.stats.correlation import pearson_correlation

@dataclass
class Table2Result:
    """Everything Table 2 and its prose claims need."""

    sweep: SweepResult
    #: Size labels in reporting order (from the experiment config).
    sizes: tuple[str, ...]
    #: cell -> {"R": .., "C": .., "P": ..} as fractions of 1.
    cells: dict[tuple[bool, str, str], dict[str, float]]
    #: dimension -> ANOVA across the four consensus methods.
    anova: dict[str, AnovaResult]
    #: (method, dimension) -> PCC of that dimension vs. group size over
    #: uniform groups.
    uniform_size_pcc: dict[tuple[str, str], float]

    def render(self) -> str:
        """The paper-shaped table plus the statistics appendix."""
        headers = ["groups", "size"]
        for method in CONSENSUS_METHODS:
            headers += [f"{method.tp_label}:R", "C", "P"]
        rows = []
        for uniform in (True, False):
            for size in self.sizes:
                row = ["uniform" if uniform else "non-uniform", size]
                for method in CONSENSUS_METHODS:
                    cell = self.cells[(uniform, size, method.value)]
                    row += [pct(100 * cell["R"]), pct(100 * cell["C"]),
                            pct(100 * cell["P"])]
                rows.append(row)
        lines = [format_table(
            headers, rows,
            title="Table 2: synthetic experiment (normalized R/C/P per consensus method)",
        )]
        lines.append("")
        lines.append(f"S constant (max observed aggregate distance): "
                     f"{self.sweep.s_constant:.2f}")
        lines.append("One-way ANOVA across consensus methods:")
        for dim, result in self.anova.items():
            lines.append(f"  {dim}: {result}")
        lines.append("PCC vs. group size (uniform groups):")
        for (method, dim), value in sorted(self.uniform_size_pcc.items()):
            lines.append(f"  {method:>22s} {dim}: {value:+.2f}")
        return "\n".join(lines)


def run(ctx: ExperimentContext, sweep: SweepResult | None = None) -> Table2Result:
    """Run (or reuse) the sweep and derive Table 2."""
    sweep = sweep or ctx.synthetic_sweep()

    cells = {
        (uniform, size, method.value): sweep.cell_means(uniform, size, method.value)
        for uniform in (True, False)
        for size in ctx.config.sizes
        for method in CONSENSUS_METHODS
    }

    anova = {}
    for dim in ("R", "C", "P"):
        samples = [
            [sweep.normalized(r)[dim] for r in sweep.select(method=m.value)]
            for m in CONSENSUS_METHODS
        ]
        anova[dim] = one_way_anova(*samples)

    # PCC of dimension means vs. group size, uniform groups, per method
    # (Section 4.3.3 reports these for cohesiveness and personalization).
    size_labels = tuple(ctx.config.sizes)
    sizes = [ctx.config.sizes[label] for label in size_labels]
    uniform_size_pcc: dict[tuple[str, str], float] = {}
    for method in CONSENSUS_METHODS:
        for dim in ("C", "P"):
            means = [cells[(True, label, method.value)][dim]
                     for label in size_labels]
            try:
                value = pearson_correlation(sizes, means)
            except ZeroDivisionError:
                value = 0.0
            uniform_size_pcc[(method.value, dim)] = value

    return Table2Result(sweep=sweep, sizes=size_labels, cells=cells,
                        anova=anova, uniform_size_pcc=uniform_size_pcc)


def main(ctx: ExperimentContext | None = None) -> Table2Result:
    """CLI entry: run and print."""
    result = run(ctx or ExperimentContext())
    print(result.render())
    return result
