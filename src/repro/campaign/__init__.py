"""Campaign orchestration: scenario registry, sweeps, parallel runs, caching.

The subsystem that names and operates the reproduction's experiments at
scale:

* :mod:`repro.campaign.spec` -- typed scenario specifications;
* :mod:`repro.campaign.registry` -- every experiment E1-E12 as a named,
  parameterised scenario with defaults, smoke sizes and metadata;
* :mod:`repro.campaign.sweep` -- declarative parameter grids expanded into
  runnable instances with deterministic child seeds;
* :mod:`repro.campaign.runner` -- process-parallel execution with a serial
  fallback and per-instance progress;
* :mod:`repro.campaign.distributed` -- fault-tolerant multi-worker execution
  over the v1 HTTP API (retry/backoff, worker eviction/readmission,
  in-process degradation, resumable via the cache); imported from its own
  module, so local campaigns never load the HTTP layer;
* :mod:`repro.campaign.cache` -- content-addressed JSON result cache under
  ``.repro-cache/``;
* :mod:`repro.campaign.cli` -- the ``python -m repro`` command line.
"""

from .cache import DEFAULT_CACHE_DIR, ResultCache, canonicalize, instance_key
from .registry import get_scenario, iter_scenarios, register, scenario_names
from .runner import (
    CampaignResult,
    InstanceResult,
    failure_record,
    resolve_jobs,
    run_campaign,
)
from .spec import ScenarioInstance, ScenarioSpec
from .sweep import (
    all_scenarios_campaign,
    expand_campaign,
    expand_entry,
    expand_grid,
    load_campaign_file,
)

__all__ = [
    "ScenarioSpec",
    "ScenarioInstance",
    "register",
    "get_scenario",
    "iter_scenarios",
    "scenario_names",
    "expand_grid",
    "expand_entry",
    "expand_campaign",
    "load_campaign_file",
    "all_scenarios_campaign",
    "ResultCache",
    "DEFAULT_CACHE_DIR",
    "canonicalize",
    "instance_key",
    "run_campaign",
    "resolve_jobs",
    "CampaignResult",
    "InstanceResult",
    "failure_record",
]
