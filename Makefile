# Convenience targets for the reproduction repo.  `make help` lists these.
#
#   make test           - tier-1 test suite (the gate every PR must keep green)
#   make coverage       - tier-1 suite under pytest-cov with the CI coverage floor (lists the 15 slowest tests)
#   make lint           - ruff check (critical rules; skipped when ruff is absent)
#   make analyze        - repo-specific static analysis (REP001-REP008 invariant rules)
#   make typecheck      - mypy over the strict-rung packages (skipped when mypy is absent)
#   make smoke          - reduced-size smoke of the simulation + batch-solver perf paths
#   make campaign-smoke - every E1-E13 scenario through the campaign runner
#   make serve-smoke    - boot `python -m repro serve` (single + --workers 2 fleet), assert 200/schema + shared store
#   make boot-check     - serve boot import-set test + top `-X importtime` entries of the boot, its first TRI-CRIT request and `repro list`
#   make distributed-smoke - multi-worker coordinator + chaos tests under a hard timeout
#   make refresh-golden - intentionally regenerate tests/golden/*.json snapshots
#   make bench          - full benchmark/experiment suite (writes BENCH_*.json)
#   make check          - lint + analyze + typecheck + coverage + smoke + campaign-smoke
#                         + serve-smoke + boot-check + distributed-smoke: what CI runs on every PR
#   make loc            - lines added/removed/net under src tests benchmarks scripts since BASE (default HEAD~1)

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Critical rules (syntax errors, broken comparisons, undefined names), a
# bugbear/pyupgrade subset (mutable/call defaults, assert-False, modern
# generics, redundant open modes, collections.abc imports), and a curated
# comprehension/simplify subset (C4: unnecessary generator/literal/double
# casts; SIM: duplicate isinstance, needless bool, loop-to-any, open without
# context manager, `in d.keys()`, negated/yoda comparisons).  C408, SIM102,
# SIM105, SIM108, SIM114 and SIM117 are deliberately excluded: `dict(k=v)`
# registry literals, nested ifs/withs, try/except-pass cleanup and
# non-ternary branches are house style here.
RUFF_RULES ?= E9,F63,F7,F82,B006,B008,B011,UP006,UP015,UP035,C400,C401,C402,C403,C404,C405,C413,C414,C416,C419,SIM101,SIM103,SIM110,SIM115,SIM118,SIM201,SIM202,SIM300

.PHONY: help test lint analyze typecheck smoke campaign-smoke serve-smoke boot-check distributed-smoke bench check coverage refresh-golden loc

# Print the target catalogue above (kept in one place: this header).
help:
	@sed -n '2,18p' Makefile | sed 's/^#//'

test:
	$(PYTHON) -m pytest -x -q

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check --select $(RUFF_RULES) src tests benchmarks examples scripts; \
	else \
		echo "ruff not installed; skipping lint (CI runs it -- pip install ruff)"; \
	fi

# Repo-specific invariants (canonical JSON, seed discipline, lock discipline,
# registry dispatch, set-iteration determinism, float equality).  Stdlib-only,
# so unlike lint/typecheck it runs everywhere -- no graceful-skip branch.
analyze:
	$(PYTHON) -m repro.analysis src/repro

# Strict-rung packages per mypy.ini's ladder.  Skipped gracefully when mypy
# is not installed locally, mirroring the ruff pattern; CI pins and runs it.
typecheck:
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy -p repro; \
	else \
		echo "mypy not installed; skipping typecheck (CI runs it -- pip install mypy)"; \
	fi

smoke:
	REPRO_E11_TRIALS=500 REPRO_BENCH_TRIALS=300 REPRO_BENCH_BATCH_MAX=100 \
		$(PYTHON) -m pytest \
		benchmarks/bench_batch_simulation.py \
		benchmarks/bench_batch_solvers.py \
		benchmarks/bench_e11_reliability_simulation.py -q -s

# Regenerate tests/golden/*.json after an *intentional* change to experiment
# output; commit the JSON diffs together with the change that caused them.
refresh-golden:
	$(PYTHON) tests/refresh_golden.py

# Tier-1 suite under pytest-cov with the line-coverage floor CI enforces.
# Skipped gracefully when pytest-cov is not installed locally.
coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTHON) -m pytest -q --durations=15 --cov=src/repro --cov-report=term \
			--cov-report=xml:coverage.xml --cov-fail-under=80; \
	else \
		echo "pytest-cov not installed; running plain tier-1 suite instead"; \
		$(PYTHON) -m pytest -x -q --durations=15; \
	fi

campaign-smoke:
	REPRO_E11_TRIALS=500 REPRO_BENCH_TRIALS=300 \
		$(PYTHON) -m repro campaign all --smoke --jobs 2

# End-to-end gate on the v1 HTTP API: boots the real `python -m repro serve`
# subprocess on a free port and asserts one solve and one batch round trip,
# then a `--workers 2` fleet on one shared port/store and asserts both
# workers answer, share cache hits, and drain cleanly on SIGTERM.
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py

# Serve boot gate: `python -m repro serve` must boot without the campaign
# stack, networkx or any SciPy module, with every continuous solver loaded
# before the bind, and its first TRI-CRIT request must load no SciPy module
# either (tests/test_boot.py).  Then the heaviest imports of the boot and of
# that first request (tests/test_boot.py's TRICRIT_REQUEST_SCRIPT, whose
# imports after its "first request" line are the request's), by cumulative
# -X importtime microseconds (informational, not a gate).
BOOT = import repro.api.server as s; s.serve = lambda *a, **k: 0; \
	from repro.__main__ import main; main(["serve", "--no-store"])
TRICRIT_REQUEST = from tests.test_boot import TRICRIT_REQUEST_SCRIPT as s; print(s)
boot-check:
	$(PYTHON) -m pytest tests/test_boot.py -q
	@echo "serve boot, top imports by cumulative -X importtime (us):"
	@$(PYTHON) -X importtime -c '$(BOOT)' 2>&1 >/dev/null \
		| sort -t'|' -k2 -n -r | head -15
	@echo "first TRI-CRIT /v1/solve after the boot, top imports by cumulative -X importtime (us):"
	@$(PYTHON) -X importtime -c "$$($(PYTHON) -c '$(TRICRIT_REQUEST)')" 2>&1 >/dev/null \
		| sed -n '/^first request$$/,$$p' | sed 1d | sort -t'|' -k2 -n -r | head -15
	@echo "python -m repro list, top imports by cumulative -X importtime (us):"
	@$(PYTHON) -X importtime -m repro list 2>&1 >/dev/null \
		| sort -t'|' -k2 -n -r | head -15

# Multi-process fault-tolerance gate: the chaos proxy tests plus the
# SIGKILL-a-worker-mid-sweep integration test.  The hard `timeout` wrapper
# turns any coordinator deadlock or orphaned worker into a loud failure
# instead of a hung CI job.
distributed-smoke:
	timeout 300 $(PYTHON) -m pytest tests/test_distributed.py -q

# bench_*.py does not match pytest's default test_*.py discovery glob, so the
# files are passed explicitly (shell glob) rather than as a directory.
bench:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q -s

check: lint analyze typecheck coverage smoke campaign-smoke serve-smoke boot-check distributed-smoke

# Net line count of a change: `git diff --numstat` of the working tree
# (uncommitted edits to tracked files included; stage a new file, or
# `git add -N` it, to count it) against BASE, per directory and in total.
BASE ?= HEAD~1
LOC_DIRS = src tests benchmarks scripts
loc:
	@git diff --numstat $(BASE) -- $(LOC_DIRS) | awk -v dirs="$(LOC_DIRS)" ' \
		$$1 != "-" { split($$3, p, "/"); add[p[1]] += $$1; del[p[1]] += $$2 } \
		END { n = split(dirs, d, " "); d[n + 1] = "total"; \
			for (i = 1; i <= n; i++) { add["total"] += add[d[i]]; del["total"] += del[d[i]] } \
			for (i = 1; i <= n + 1; i++) \
				printf "%-11s +%-6d -%-6d net %d\n", d[i], add[d[i]], del[d[i]], add[d[i]] - del[d[i]] }'
