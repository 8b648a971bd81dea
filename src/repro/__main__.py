"""``python -m repro`` -- campaign orchestration and the v1 API server.

``python -m repro serve`` exposes the library over HTTP (see
:mod:`repro.api.server`); the remaining subcommands drive the experiment
campaigns (see :mod:`repro.campaign.cli`).  ``serve`` is routed before
anything imports :mod:`repro.campaign`, so a server (and every fleet child
or distributed worker, each started as ``python -m repro serve``) boots
without the campaign stack, the experiment suites or ``scipy.optimize``.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence


def main(argv: Sequence[str] | None = None) -> int:
    arglist = list(argv) if argv is not None else sys.argv[1:]
    if arglist[:1] == ["serve"]:
        # The server owns its parser (--host/--port/--max-tasks/...), so
        # every serve flag is defined in one place, and argparse never sees
        # "serve --port 0" as a subcommand with leading optionals.
        from .api.server import main as serve_main

        return serve_main(arglist[1:])
    from .campaign.cli import main as campaign_main

    return campaign_main(arglist)


if __name__ == "__main__":
    sys.exit(main())
