"""The served boot's import set, checked in a fresh interpreter.

``python -m repro serve`` is routed by :mod:`repro.__main__` to the API
server before the campaign stack is imported, and the server's boot
imports every continuous solver's module before it binds.  The subprocess
below runs that boot with :func:`repro.api.server.serve` stubbed out, so
nothing binds a socket, and reports the modules it loaded.  The other
direction holds too: the campaign command line loads the HTTP layer only
when a campaign runs on workers.  A first TRI-CRIT request after the
boot loads no SciPy module either, and no ``numpy.ma``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.reliability import ReliabilityModel
from repro.solvers import iter_solvers, solver_names

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: ``python -m repro serve --no-store`` up to the bind, then the module set.
BOOT_SCRIPT = """
import json, sys
import repro.api.server as server
server.serve = lambda *args, **kwargs: 0
from repro.__main__ import main
assert main(["serve", "--no-store"]) == 0
print(json.dumps(sorted(sys.modules)))
"""

#: Modules serving never uses: a served boot must not pay for them.
NOT_AT_BOOT = ("networkx", "scipy", "scipy.optimize", "repro.campaign",
               "repro.experiments")


#: The perfbench pool's ``chain-n22-f0.7-s1.5-4``: a TRI-CRIT chain on one
#: processor whose re-execution floors reach the Wright omega branch of
#: :func:`repro.core.reliability.equal_reexecution_floor`.
CHAIN_WEIGHTS = [
    9.487504950151308, 5.601947975329255, 9.786193351369338,
    1.7275242150604195, 6.466202487955266, 4.388379259395453,
    8.217110862872264, 2.570750345296256, 8.844717467688907,
    5.895472606871484, 9.119935717443894, 5.294381714552856,
    4.8744664995647184, 8.100520457898964, 9.857376999380092,
    4.327532133871859, 9.720395823846115, 9.361237489888776,
    2.59923327185783, 6.479664551600928, 7.343782710082683,
    9.485233112162504]
CHAIN_PROBLEM = {
    "format_version": 1, "kind": "tricrit", "deadline": 224.32434600621178,
    "graph": {"format_version": 1,
              "tasks": [{"id": f"T{i}", "weight": w}
                        for i, w in enumerate(CHAIN_WEIGHTS)],
              "edges": [[f"T{i}", f"T{i + 1}"]
                        for i in range(len(CHAIN_WEIGHTS) - 1)]},
    "mapping": [[f"T{i}" for i in range(len(CHAIN_WEIGHTS))]],
    "platform": {"num_processors": 1,
                 "speed_model": {"kind": "continuous", "fmin": 0.1, "fmax": 1.0},
                 "energy_model": {"exponent": 3.0, "static_power": 0.0},
                 "reliability_model": {"fmin": 0.1, "fmax": 1.0, "lambda0": 1e-05,
                                       "sensitivity": 3.0, "frel": 0.7}},
}

#: The boot, then one served ``POST /v1/solve`` of :data:`CHAIN_PROBLEM`
#: through the booted engine; prints the status and solver, then the
#: module set.  A ``first request`` line on stderr parts the boot's
#: ``-X importtime`` entries from the request's (``make boot-check``).
TRICRIT_REQUEST_SCRIPT = """
import json, sys
import repro.api.server as server
booted = {}
server.serve = lambda *args, **kwargs: booted.update(kwargs) or 0
from repro.__main__ import main
assert main(["serve", "--no-store"]) == 0
from repro.api.service import Service
print("first request", file=sys.stderr, flush=True)
status, payload = Service(booted["engine"]).handle(
    "POST", "/v1/solve", json.dumps({"problem": %s, "solver": "auto"}))
print(json.dumps([status, payload.get("solver")]))
print(json.dumps(sorted(sys.modules)))
""" % json.dumps(CHAIN_PROBLEM)

#: ``import repro.campaign.cli``, then the module set.
CAMPAIGN_CLI_SCRIPT = """
import json, sys
import repro.campaign.cli
print(json.dumps(sorted(sys.modules)))
"""

#: The HTTP layer: only a distributed campaign imports it, on demand.
NOT_IN_CAMPAIGN_CLI = ("repro.campaign.distributed", "repro.api.server",
                       "http.server")


def run_fresh(script: str) -> list[str]:
    """The stdout lines of ``script`` run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=120).stdout.splitlines()


def loaded_modules(script: str) -> set[str]:
    """The modules a fresh interpreter has loaded after running ``script``."""
    return set(json.loads(run_fresh(script)[-1]))


@pytest.fixture(scope="module")
def boot_modules() -> set[str]:
    return loaded_modules(BOOT_SCRIPT)


@pytest.fixture(scope="module")
def campaign_cli_modules() -> set[str]:
    return loaded_modules(CAMPAIGN_CLI_SCRIPT)


@pytest.fixture(scope="module")
def first_tricrit_request() -> tuple[list, set[str]]:
    """``([status, solver], modules)`` of a boot plus one TRI-CRIT solve."""
    *_, answer, modules = run_fresh(TRICRIT_REQUEST_SCRIPT)
    return json.loads(answer), set(json.loads(modules))


@pytest.mark.parametrize("module", NOT_AT_BOOT)
def test_serve_boot_skips(boot_modules, module):
    assert module not in boot_modules


def test_serve_boot_loads_every_continuous_solver(boot_modules):
    modules = {solver.impl.partition(":")[0] for solver in iter_solvers()
               if "continuous" in solver.speed_models}
    assert modules
    assert modules <= boot_modules


def test_first_tricrit_request_loads_no_scipy(first_tricrit_request):
    # A floor strictly inside ``(fmin, frel)`` is none of the end cases, so
    # the request evaluates the Wright omega function: SciPy's, once.
    model = ReliabilityModel(0.1, 1.0, 1e-5, 3.0, 0.7)
    floors = [model.min_equal_reexecution_speed(w) for w in CHAIN_WEIGHTS]
    assert any(model.fmin < f < model.frel for f in floors)
    answer, modules = first_tricrit_request
    assert answer == [200, "tricrit-pruned"]
    assert not [m for m in modules if m.partition(".")[0] == "scipy"]


def test_first_tricrit_request_loads_no_masked_arrays(first_tricrit_request):
    # ``np.unique`` imports ``numpy.ma`` on first use (numpy 2.x); the
    # pruned search's breakpoint tables do without it.
    answer, modules = first_tricrit_request
    assert answer == [200, "tricrit-pruned"]
    assert "numpy.ma" not in modules


@pytest.mark.parametrize("module", NOT_IN_CAMPAIGN_CLI)
def test_campaign_cli_skips_the_http_layer(campaign_cli_modules, module):
    assert module not in campaign_cli_modules


def test_other_subcommands_reach_the_campaign_cli(capsys):
    from repro.__main__ import main

    assert main(["solvers", "--names"]) == 0
    assert capsys.readouterr().out.split() == solver_names()
