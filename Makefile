# Convenience targets for the PEM reproduction.
#
#   make test        - tier-1 verify: the full unit/integration suite
#                      (tests/ plus the paper-figure benchmarks)
#   make lint        - repro lint: the AST invariant linter over src/repro,
#                      scripts and benchmarks; fails on any finding not
#                      pinned in staticcheck_baseline.json and on baseline
#                      drift (stale pinned entries)
#   make test-fast   - the tier-1 subset under tests/ only: small keys,
#                      small kappa, seconds total — the inner-loop target
#   make bench-smoke - regenerate BENCH_crypto.json at smoke scale,
#                      including the 2-worker sharded-day experiment
#                      (overwrites the committed default-scale file —
#                      don't commit smoke output)
#   make docs-check  - verify the docs' referenced files/commands/links
#                      exist, that the source tree byte-compiles, that
#                      docs/BENCHMARKS.md names every declared key and
#                      floor, and that the committed BENCH_crypto.json
#                      passes check_bench_schema.py's validate (the one
#                      declaration of keys, certificates and floors)
#   make coverage    - advisory line-coverage report for the planner
#                      package (90% floor on src/repro/planning/);
#                      skipped cleanly when pytest-cov is not installed
#   make ci          - the full gate: lint, then test-fast and docs-check,
#                      then a check that the bigint seam autodetected
#                      libcrypto (on any host whose own hashlib is linked
#                      against it, so a broken loader cannot silently
#                      run the day on the builtin-pow fallback),
#                      then the wall-clock benchmark's smoke set
#                      (perfbench --smoke, ~10 s: on all four workloads
#                      the private day must equal the plaintext oracle
#                      with zero pool/GC fallbacks; its timings mean
#                      nothing at that length), then a
#                      smoke bench run written to a scratch file (so the
#                      committed BENCH_crypto.json is left untouched)
#                      and held to the same validate — a missing or
#                      mistyped key or a violated floor fails it, not
#                      just a flipped certificate,
#                      then a tiny day-scoped trading day executed over
#                      SocketTransport (messages + shard fan-out on real
#                      loopback TCP), then the same day under half-gates
#                      garbling, then a seeded chaos day over sockets
#                      (frame faults + a SIGKILLed shard worker, certified
#                      to recover bit-identically), then a deployment-plan
#                      smoke (repro plan --oracle --execute: the planned
#                      config must match exhaustive enumeration and run a
#                      real day economically identical to the naive
#                      default); the bench and all four day runs exit
#                      non-zero on any identity or determinism regression

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast lint bench-smoke docs-check coverage ci

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.staticcheck

test-fast:
	$(PYTHON) -m pytest tests -x -q

bench-smoke:
	$(PYTHON) benchmarks/run_crypto_bench.py --scale smoke --workers 2

docs-check:
	$(PYTHON) scripts/docs_check.py
	$(PYTHON) scripts/check_bench_schema.py

coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest tests/planning -q \
			--cov=repro.planning --cov-report=term-missing \
			--cov-fail-under=90; \
	else \
		echo "coverage: pytest-cov not installed, skipping (advisory target)"; \
	fi

ci: lint test-fast docs-check
	@if $(PYTHON) -c "import _hashlib" 2>/dev/null; then \
		$(PYTHON) -c "from repro.crypto.bigint import backend; assert backend().name == 'libcrypto', backend().name"; \
	fi
	$(PYTHON) -m perfbench --smoke
	$(PYTHON) benchmarks/run_crypto_bench.py --scale smoke --workers 2 \
		--output $(or $(CI_BENCH_OUTPUT),/tmp/BENCH_crypto.ci.json)
	$(PYTHON) examples/parallel_private_day.py --homes 8 --windows 2 --workers 2 \
		--session-scope day --transport socket
	$(PYTHON) examples/parallel_private_day.py --homes 8 --windows 3 --workers 2 \
		--session-scope day --transport socket --pipeline
	$(PYTHON) examples/parallel_private_day.py --homes 8 --windows 2 --workers 2 \
		--garbling-scheme halfgates
	$(PYTHON) examples/parallel_private_day.py --homes 8 --windows 2 --workers 2 \
		--chaos-seed 23 --transport socket
	$(PYTHON) scripts/repro_plan.py --hosts 2 --cores-per-host 2 --agents 8 \
		--windows 3 --oracle --execute 2 --execute-homes 8
