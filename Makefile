PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-fix audit claims bench bench-full goldens experiments quick clean-pyc

test:
	$(PYTHON) -m pytest -x -q

## reprolint static invariants (DESIGN.md §9): fails on any new
## (non-baselined) finding; reprolint_baseline.json grandfathers the
## documented exact float comparisons and nothing else.  Every run
## lints the whole tree; reprolint.sarif feeds CI's inline PR
## annotations.
lint:
	$(PYTHON) -m repro.analysis src benchmarks --baseline reprolint_baseline.json \
		--sarif reprolint.sarif

## Apply mechanically-safe autofixes (suffix renames, zero guards,
## sorted() wraps) and scaffold TODO-marked inline suppressions for
## whatever remains — every TODO must be justified before review.
lint-fix:
	$(PYTHON) -m repro.analysis src benchmarks --baseline reprolint_baseline.json \
		--fix --fix-suppress

## Tier-1 tests with repro.obs audit mode on: every replay/adaptive
## result must reconcile against its cost ledger or the suite fails.
audit:
	REPRO_AUDIT=1 $(PYTHON) -m pytest -x -q

## The paper's qualitative claims (benchmarks/test_*.py): SOMPI
## cheapest in every FIG5 cell, the ACC-MODEL error bound, and the
## deviations EXPERIMENTS.md records.  Goldens prove the numbers did not
## change; these prove the numbers still say what the paper says.
claims:
	$(PYTHON) -m pytest benchmarks --benchmark-disable -q

## Perf suite in quick mode; refuses to overwrite BENCH_*.json on a
## >20% regression of the primary metric (pass FORCE=1 to override).
bench:
	$(PYTHON) -m benchmarks.perf --quick $(if $(FORCE),--force,)

bench-full:
	$(PYTHON) -m benchmarks.perf $(if $(FORCE),--force,)

## Every perfbench workload's outputs, at both sizes and on every
## held-out seed, byte for byte against perfbench/goldens.json.
goldens:
	python3 perfbench/run.py --check-goldens

## Remove byte-compiled caches.  A stale __pycache__ can shadow edited
## modules (and silently defeat the engine-fingerprint invalidation of
## the artifact store); none may ever be tracked — CI asserts that.
clean-pyc:
	find . -name __pycache__ -prune -exec rm -rf {} +
	find . -name '*.py[co]' -delete

experiments:
	$(PYTHON) -m repro.experiments.runner

quick:
	$(PYTHON) -m repro.experiments.runner --quick
