# Developer conveniences. The library itself has no build step: every
# target imports it from src/, so a plain checkout needs no install.
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-paper perfbench pairs docs examples lint audit

test:
	pytest tests/ -q

bench:
	pytest benchmarks/ --benchmark-only

bench-paper:  ## only the per-figure/table reproductions (no extensions)
	pytest benchmarks/test_fig*.py benchmarks/test_table*.py benchmarks/test_s5*.py --benchmark-only

perfbench:  ## benchmark self-test, then a short run of all six workloads (exit 1 on any output check)
	python -m pytest perfbench -q
	python3 perfbench/run.py --seconds 0.45 --rounds 1

PAIRS_REF ?= HEAD
PAIRS ?= 10
pairs:  ## PAIRS alternating perfbench pairs, PAIRS_REF against the working tree (WORKLOAD=NAME: one)
	python3 tools/pairs.py --ref $(PAIRS_REF) --pairs $(PAIRS) $(if $(WORKLOAD),--workload $(WORKLOAD))

docs:
	python tools/gen_api_docs.py

examples:
	for ex in examples/*.py; do echo "== $$ex"; python $$ex > /dev/null || exit 1; done

lint:
	python -m compileall -q src tests benchmarks examples tools perfbench

AUDIT_OUT ?= /tmp/repro-audit
# One invocation per CLI verb (per WHAT for obs), as CI, README.md and docs/ quote them.
AUDIT_CLI = gateway pmtud upf "upf --mtu 1500" survey fig5a \
	"obs metrics --format prometheus" "obs trace --format summary" \
	"obs spans --format summary" "obs flight --seed 0" \
	"obs incident --trigger matrix --seed 0" "obs timeline" "obs alerts" \
	"resilience-report --profile mixed --seed 101" "attacks --json" \
	"fleet --quick --loss-drill --json"

# --benchmark-disable: a timed benchmark pauses every profiler, the audit hook too.
audit:  ## reach + knob audit (tools/audit.py) over every consumer; slow, not in CI
	rm -rf $(AUDIT_OUT)
	python tools/audit.py run $(AUDIT_OUT) -- python -m pytest tests -q -p no:cacheprovider
	python tools/audit.py run $(AUDIT_OUT) -- python -m pytest benchmarks --benchmark-disable -q -p no:cacheprovider
	python tools/audit.py run $(AUDIT_OUT) -- $(MAKE) --no-print-directory examples
	python tools/audit.py run $(AUDIT_OUT) -- python3 perfbench/run.py --seconds 0.45 --rounds 1
	for args in $(AUDIT_CLI); do \
		python tools/audit.py run $(AUDIT_OUT) -- python -m repro.cli $$args > /dev/null || exit 1; done
	python tools/audit.py report $(AUDIT_OUT)
