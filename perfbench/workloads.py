"""The three workloads: their generated instances and the jobs of one round.

A round is every job of one instance, run one at a time in a fixed order,
so the commands interleave across rounds.  CLI jobs carry their argv and
an output check; the in-process job carries a callable.  Jobs that read a
representation use the stdout of the same round's ``sample`` job.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs
from inputs import Doc

WORKLOADS = ("small-docs", "large-structure", "gl3-orbits")

# Instances generated per run; rounds cycle through them if a run is long.
POOL_SIZE = {"small-docs": 24, "large-structure": 3, "gl3-orbits": 12}
SMALL_BATCH = 200

# kn-flow tolerances.  Tiny quivers converge to 1e-4 quickly.  On the
# 50/150 GL(3) quivers the flow is linear near the minimum and some
# instances have a slow mode: one needed 2554 steps to reach 1e-4, past the
# CLI's default --max-iter 1000.  Residual 1.0 is a hundredfold reduction
# of the starting residual (80-110); 120 probed instances reached it in a
# median of 17 and at most 139 steps.
SMALL_FLOW_TOL = 1e-4
GL3_FLOW_TOL = 1.0
# Some tiny SL(3)/GL(3) samples converge slowly: of 1285 probed small-docs
# flows, three needed 1019-2215 steps to reach 1e-4, past the CLI's default
# --max-iter 1000.
FLOW_MAX_ITER = 20000
RETRACT_T = 0.5
PUSHFORWARD_GROUP = ("GL", 3)


@dataclass
class Instance:
    """Generated documents of one round, written under ``root``."""

    index: int
    doc: Doc
    path: Path
    weighted: tuple[Doc, Path]  # random-weight copy of ``doc``
    family: str  # group of the ``sample`` job
    n: int
    sample_seed: int

    @property
    def rep_path(self) -> Path:
        return self.path.with_suffix(".rep.json")


@dataclass
class Job:
    kind: str
    argv: list[str] | None = None
    check: Callable[[str], str | None] | None = None
    doc: Doc | None = None
    save: Path | None = None
    # In-process jobs: prepare(lib) builds the arguments untimed, run(lib,
    # args) makes the timed calls and returns a state that verify(state)
    # checks.
    prepare: Callable | None = None
    run: Callable | None = None
    verify: Callable | None = None
    calls: int = 1


def _write(doc: Doc, path: Path) -> Path:
    path.write_text(doc.text(), encoding="utf-8")
    return path


def make_instance(workload: str, seed: int, index: int, root: Path) -> Instance:
    rng = inputs.instance_rng(seed, workload, index)
    family, n = "GL", 3
    if workload == "small-docs":
        doc = inputs.small_doc(rng, f"S{index}")
        family, n = rng.choice(("GL", "SL", "U")), rng.randint(1, 3)
    elif workload == "large-structure":
        doc = inputs.tree_plus_extras(rng, inputs.LARGE_V, inputs.LARGE_A, f"T{index}")
    elif workload == "gl3-orbits":
        doc = inputs.cycle_plus_extras(rng, inputs.GL3_V, inputs.GL3_A, f"H{index}")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    weighted = doc.with_random_weights(rng)
    stem = root / f"{workload}-{index}"
    return Instance(
        index,
        doc,
        _write(doc, stem.with_suffix(".quiver")),
        (weighted, _write(weighted, stem.with_suffix(".weighted.quiver"))),
        family,
        n,
        rng.randrange(2**31),
    )


def warmup_job(root: Path) -> Job:
    """One CLI call on a fixed document.

    Every command imports the whole package first, so one call compiles and
    caches everything the measured jobs load.
    """
    doc = Doc("Warm", ("v0", "v1"), (("a0", "v0", "v1"), ("a1", "v1", "v0"), ("a2", "v0", "v0")))
    return Job("warm-up", ["info", str(_write(doc, root / "warmup.quiver")), "--json"], None, doc)


def _load_rep(path: Path) -> dict:
    return checks.markings(json.loads(path.read_text(encoding="utf-8")))


def _rep_jobs(inst: Instance, flow_tol: float | None, retract: bool) -> list[Job]:
    doc, p, rep = inst.doc, str(inst.path), str(inst.rep_path)
    jobs = [
        Job(
            "sample",
            ["sample", p, "--group", inst.family, "--n", str(inst.n), "--seed", str(inst.sample_seed)],
            lambda out: checks.check_sample(doc, inst.family, inst.n, out),
            doc,
            save=inst.rep_path,
        ),
        Job(
            "kn-residual",
            ["kn-residual", p, "--rep", rep],
            lambda out: checks.check_residual(doc, _load_rep(inst.rep_path), out),
            doc,
        ),
    ]
    if flow_tol is not None:
        jobs.append(
            Job(
                "kn-flow",
                ["kn-flow", p, "--rep", rep, "--tol", repr(flow_tol), "--max-iter", str(FLOW_MAX_ITER)],
                lambda out: checks.check_flow(doc, _load_rep(inst.rep_path), flow_tol, out),
                doc,
            )
        )
    if retract:
        jobs.append(
            Job(
                "retract",
                ["retract", p, "--rep", rep, "--t", repr(RETRACT_T)],
                lambda out: checks.check_retract(doc, _load_rep(inst.rep_path), out),
                doc,
            )
        )
    return jobs


def pushforward_batch(workload: str, seed: int) -> list[tuple[Doc, int]] | None:
    """Documents for the in-process job of every round, or None for the round's own.

    Tiny documents differ a lot in size, so on ``small-docs`` every round
    times the same SMALL_BATCH generated documents and reports the mean per
    document; a handful of documents would make the median follow the
    seed's size mix.
    """
    if workload != "small-docs":
        return None
    batch = []
    for k in range(SMALL_BATCH):
        rng = inputs.instance_rng(seed, "small-docs-batch", k)
        batch.append((inputs.small_doc(rng, f"B{k}"), rng.randrange(2**31)))
    return batch


def pushforward_job(items: list[tuple[Doc, int]]) -> Job:
    """In-process reduce_to_rose + pushforward_collapse of seeded GL(3) samples.

    ``run`` makes one call pair per document; the runner divides its time by
    ``len(items)``.
    """
    texts = [doc.text() for doc, _ in items]

    def prepare(lib):
        group = lib.quiver.GroupSpec(*PUSHFORWARD_GROUP)
        out = []
        for text, (_, seed) in zip(texts, items):
            parsed = lib.dsl.parse(text)
            out.append((parsed, lib.representation.random_representation(parsed.quiver, group, seed)))
        return out

    def run(lib, args):
        results = []
        for parsed, rep in args:
            _, _, trace = lib.rewrites.reduce_to_rose(parsed.quiver, parsed.relations)
            results.append((rep, lib.representation.pushforward_collapse(rep, trace), trace))
        return results

    def verify(results):
        for (doc, _), (rep, pushed, trace) in zip(items, results):
            if pushed.quiver.n_vertices != 1:
                return f"pushforward {doc.name}: {pushed.quiver.n_vertices} vertices left"
            collapsed = frozenset(step.arrow for step in trace.steps)
            reason = checks.check_pushforward(doc, dict(rep.markings), dict(pushed.markings), collapsed)
            if reason:
                return f"{reason} ({doc.name})"
        return None

    return Job("pushforward", prepare=prepare, run=run, verify=verify, calls=len(items))


def round_jobs(workload: str, inst: Instance, batch: list[tuple[Doc, int]] | None = None) -> list[Job]:
    """Jobs of one round, in the order they run; ``batch`` feeds the in-process job."""
    doc, p = inst.doc, str(inst.path)
    if workload == "small-docs":
        jobs = [
            Job("info", ["info", p, "--group", "GL", "--n", "2"], lambda out: checks.check_info_text(doc, out), doc),
        ]
    else:
        sc = True if workload == "gl3-orbits" else None
        jobs = [
            Job("info", ["info", p, "--json"], lambda out: checks.check_info_json(doc, out, sc), doc),
        ]
    jobs += [
        Job("reduce", ["reduce", p, "--json"], lambda out: checks.check_reduce(doc, out), doc),
        Job(
            "certificate",
            ["certificate", p, "--json"],
            lambda out: checks.check_certificate(doc, out, workload == "gl3-orbits"),
            doc,
        ),
        Job("toric", ["toric", p], lambda out: checks.check_toric(doc, out), doc),
    ]
    wdoc, wpath = inst.weighted
    jobs.append(Job("toric-weighted", ["toric", str(wpath)], lambda out: checks.check_toric(wdoc, out), wdoc))
    if workload == "small-docs":
        noncompact = inst.family in ("GL", "SL")
        jobs += _rep_jobs(inst, SMALL_FLOW_TOL if noncompact else None, retract=noncompact)
    elif workload == "gl3-orbits":
        jobs += _rep_jobs(inst, GL3_FLOW_TOL, retract=False)
    else:
        jobs += _rep_jobs(inst, None, retract=False)
    jobs.append(pushforward_job(batch or [(inst.doc, inst.sample_seed)]))
    return jobs
