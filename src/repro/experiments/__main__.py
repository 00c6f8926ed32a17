"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments list
    python -m repro.experiments all [--quick]
    python -m repro.experiments table1 | table2 | figure1 | compilers |
                                 toys | matrix | porting

Targets come from the experiment registry
(:mod:`repro.experiments.registry`); ``list`` prints every registered
experiment, workload, and unit with a one-line description.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.registry import experiment, experiments


def _render_list() -> str:
    """Everything the registries know, one line per entry."""
    from repro.core import unit_registry

    lines = ["experiments (python -m repro.experiments <name>):"]
    for spec in experiments():
        lines.append(f"  {spec.name:<12}{spec.description}")
    lines.append("")
    lines.append("workloads:")
    for wl in unit_registry.workloads():
        lines.append(f"  {wl.name:<12}{wl.description}")
    lines.append("")
    lines.append("units:")
    for unit in unit_registry.units():
        lines.append(f"  {unit.name:<12}{unit.description}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    choices = ["list"] + [spec.name for spec in experiments()]
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("what", choices=choices)
    parser.add_argument("--quick", action="store_true",
                        help="few steps / small replication (for smoke runs)")
    args = parser.parse_args(argv)

    if args.what == "list":
        print(_render_list())
        return 0
    print(experiment(args.what).run(quick=args.quick))
    return 0


if __name__ == "__main__":
    sys.exit(main())
