"""Workload definitions: a scenario file plus the CLI commands run on its data.

Each command is an argv template for ``python -m torquenet.cli``. The
placeholders ``{data}`` (the directory ``simulate`` wrote), ``{out}`` (the
command's output directory), ``{config}`` (the scenario file) and ``{seed}``
are filled in at run time. ``stage`` names the end-to-end metric the
command's wall time adds to. A command's ``name`` is unique within its
workload; its first argv entry is the CLI subcommand, which also names the
file it writes (``<subcommand>.csv``).

``schedule`` is the order of one round: every command once, and a short
command that a round would otherwise sample only once may appear again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIOS = os.path.join(HERE, "scenarios")

EDGES = "{data}/edges.csv"
ATTRS = "{data}/attributes.csv"
DESIGN = "{out}/design.csv"


@dataclass(frozen=True)
class Command:
    name: str
    stage: str  # structure | exposure | estimate
    argv: tuple[str, ...]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    threads: int
    commands: tuple[Command, ...]
    # villages (by sorted position) whose torque is recounted by BFS; None = all
    torque_recount: tuple[int, ...] | None
    # focal nodes per checked village, and every how many villages to check
    exposure_focal: int
    exposure_village_stride: int
    # BLAS threads for the commands; None leaves the environment's default
    blas_threads: int | None = None
    # command names in the order of one round; None = each command once
    schedule: tuple[str, ...] | None = None

    @property
    def config(self) -> str:
        return os.path.join(SCENARIOS, self.scenario)

    def round_order(self) -> tuple[Command, ...]:
        by_name = {cmd.name: cmd for cmd in self.commands}
        return tuple(by_name[name] for name in self.schedule) if self.schedule \
            else self.commands


def _cmd(name, stage, *argv, subcommand=None):
    return Command(name, stage, (subcommand or name,) + argv)


WORKLOADS = {
    "village30": Workload(
        name="village30", scenario="village30.ini", threads=1,
        commands=(
            _cmd("metrics", "structure", "--edges", EDGES),
            _cmd("torque", "structure", "--edges", EDGES),
            _cmd("exposure", "exposure", "--edges", EDGES, "--attrs", ATTRS,
                 "--topic", "story", "--k", "2,3,4"),
            _cmd("exposure_primary", "exposure", "--edges", EDGES, "--attrs", ATTRS,
                 "--topic", "story", "--mode", "primary", "--k", "2,3",
                 subcommand="exposure"),
            _cmd("screen", "estimate", "--edges", EDGES, "--attrs", ATTRS),
            _cmd("fit", "estimate", "--edges", EDGES, "--attrs", ATTRS,
                 "--topic", "story", "--layer", "closest_friend",
                 "--format", "json", "--dump-design", DESIGN),
            _cmd("reduce", "estimate", "--edges", EDGES, "--attrs", ATTRS,
                 "--topic", "story", "--layer", "closest_friend",
                 "--boot", "1000", "--seed", "{seed}"),
            _cmd("experiment", "estimate", "--config", "{config}",
                 "--seed", "{seed}"),
        ),
        torque_recount=None, exposure_focal=4, exposure_village_stride=1,
        blas_threads=1),
    "paper110": Workload(
        name="paper110", scenario="paper110.ini", threads=2,
        commands=(
            _cmd("torque", "structure", "--edges", EDGES),
            _cmd("exposure", "exposure", "--edges", EDGES, "--attrs", ATTRS,
                 "--topic", "chupones", "--k", "2"),
            _cmd("fit", "estimate", "--edges", EDGES, "--attrs", ATTRS,
                 "--topic", "chupones", "--layer", "closest_friend",
                 "--format", "json", "--dump-design", DESIGN),
        ),
        torque_recount=(0, 27, 54, 81, 108), exposure_focal=10,
        exposure_village_stride=11, blas_threads=1,
        schedule=("torque", "fit", "exposure", "fit")),
}

# The self-test runs the village30 command set on a few small villages.
TINY = Workload(
    name="tiny", scenario="tiny.ini", threads=1,
    commands=WORKLOADS["village30"].commands,
    torque_recount=None, exposure_focal=5, exposure_village_stride=1)


def fill(argv, **values) -> list[str]:
    return [a.format(**values) for a in argv]


def option(argv, flag: str, default=None):
    """Value following ``flag`` in an argv list."""
    argv = list(argv)
    if flag in argv:
        return argv[argv.index(flag) + 1]
    return default
