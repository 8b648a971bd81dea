"""E4 -- BI-CRIT under VDD-HOPPING is polynomial via a linear program (Sec. IV).

Claims reproduced:

* the LP optimum is sandwiched between the CONTINUOUS optimum (VDD-HOPPING
  "smoothes out the discrete nature of the speeds") and the single-mode
  DISCRETE optimum;
* an optimal solution uses at most two speeds per task, and those two speeds
  are consecutive modes (R11).
"""

from __future__ import annotations

from repro.campaign import get_scenario
from repro.experiments import print_table

SCENARIO = get_scenario("e4-vdd-lp")


def test_e4_vdd_hopping_lp(run_once):
    rows = run_once(SCENARIO.run)
    print_table(rows, title="E4: VDD-HOPPING LP vs continuous bound vs discrete optimum")
    for row in rows:
        assert row["vdd_over_continuous"] >= 1.0 - 1e-9
        assert row["discrete_over_vdd"] >= 1.0 - 1e-9
        assert row["max_speeds_per_task"] <= 2
        assert row["consecutive_pairs"]
