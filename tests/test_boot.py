"""The served boot's import set, checked in a fresh interpreter.

``python -m repro serve`` is routed by :mod:`repro.__main__` to the API
server before the campaign stack is imported, and the server's boot
imports every continuous solver's module before it binds.  The subprocess
below runs that boot with :func:`repro.api.server.serve` stubbed out, so
nothing binds a socket, and reports the modules it loaded.  The other
direction holds too: the campaign command line loads the HTTP layer only
when a campaign runs on workers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


#: ``import repro.campaign.cli``, then the module set.
CAMPAIGN_CLI_SCRIPT = """
import json, sys
import repro.campaign.cli
print(json.dumps(sorted(sys.modules)))
"""

#: The HTTP layer: only a distributed campaign imports it, on demand.
NOT_IN_CAMPAIGN_CLI = ("repro.campaign.distributed", "repro.api.server",
                       "http.server")


def loaded_modules(script: str) -> set[str]:
    """The modules a fresh interpreter has loaded after running ``script``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    return set(json.loads(out.splitlines()[-1]))


@pytest.fixture(scope="module")
def boot_modules() -> set[str]:
    return loaded_modules(BOOT_SCRIPT)


@pytest.fixture(scope="module")
def campaign_cli_modules() -> set[str]:
    return loaded_modules(CAMPAIGN_CLI_SCRIPT)


@pytest.mark.parametrize("module", NOT_AT_BOOT)
def test_serve_boot_skips(boot_modules, module):
    assert module not in boot_modules


def test_serve_boot_loads_every_continuous_solver(boot_modules):
    modules = {solver.impl.partition(":")[0] for solver in iter_solvers()
               if "continuous" in solver.speed_models}
    assert modules
    assert modules <= boot_modules


@pytest.mark.parametrize("module", NOT_IN_CAMPAIGN_CLI)
def test_campaign_cli_skips_the_http_layer(campaign_cli_modules, module):
    assert module not in campaign_cli_modules


def test_other_subcommands_reach_the_campaign_cli(capsys):
    from repro.__main__ import main

    assert main(["solvers", "--names"]) == 0
    assert capsys.readouterr().out.split() == solver_names()
