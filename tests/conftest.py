"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.machine import MeshParams, Paragon, ParagonConfig
from repro.machine.ionode import IONode

#: I/O-node engines: the eager FIFO chain every FIFO node starts on, and
#: the scalar queue it is checked against (and falls back to under faults).
ENGINES = ("eager", "scalar")


def make_machine(nodes: int = 8, io_nodes: int = 4, seed: int = 7) -> Paragon:
    """A small machine with a mesh just big enough for ``nodes``."""
    width = max(2, nodes // 2)
    height = max(2, -(-nodes // width))
    return Paragon(
        ParagonConfig(
            compute_nodes=nodes,
            io_nodes=io_nodes,
            mesh=MeshParams(width=width, height=height),
            seed=seed,
        )
    )


@pytest.fixture
def machine() -> Paragon:
    return make_machine()


@pytest.hookimpl(trylast=True)
def pytest_generate_tests(metafunc):
    # Parametrized last so the engine id closes the test id; the eager
    # engine keeps its "batched" id.
    if "engine" in metafunc.fixturenames:
        metafunc.parametrize(
            "engine", ENGINES, ids=("batched", "scalar"), indirect=True
        )


@pytest.fixture
def engine(request, monkeypatch) -> str:
    """The I/O-node engine every node built during the test runs on:
    ``"scalar"`` flips each new :class:`IONode` onto its scalar queue."""
    if request.param == "scalar":
        init = IONode.__init__

        def scalar_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self._eager = False

        monkeypatch.setattr(IONode, "__init__", scalar_init)
    return request.param


@pytest.fixture(scope="session")
def paper_run():
    """``paper_run(app)``: the paper-scale run of ``app``, simulated once
    per session and shared read-only by every test that asks for it."""
    from repro.core import paper_experiment

    results = {}

    def run(app: str):
        if app not in results:
            results[app] = paper_experiment(app).run()
        return results[app]

    return run


@pytest.fixture(scope="session")
def recorded():
    """One small spans-on run per app, plus ``escat_tuned``: ESCAT on
    PPFS, whose write-behind flusher prices its bursts through
    ``IONode.submit_batch``.  Shared read-only by the span invariants and
    the analysis pins."""
    from repro.core.registry import small_experiment
    from repro.ppfs.policies import PPFSPolicies

    out = {
        app: small_experiment(app, spans=True).run()
        for app in ("escat", "render", "htf", "checkpoint")
    }
    out["escat_tuned"] = small_experiment(
        "escat", spans=True, filesystem="ppfs",
        policies=PPFSPolicies.from_name("escat_tuned"),
    ).run()
    return out


def drive(machine: Paragon, *generators, names=None):
    """Run generators as processes to completion; return their values.

    Raises if any process failed or never finished.
    """
    names = names or [""] * len(generators)
    procs = [
        machine.env.process(gen, name=name)
        for gen, name in zip(generators, names)
    ]
    machine.run()
    values = []
    for p in procs:
        if p.is_alive:
            raise AssertionError(f"process {p.name!r} never finished")
        if not p.ok:
            raise p.value
        values.append(p.value)
    return values
