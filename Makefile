# Developer conveniences. The library itself has no build step.

.PHONY: test bench bench-paper perfbench docs examples lint ops audit

test:
	pytest tests/ -q

ops:  ## canary/incident suite + corpus verdicts with determinism diff
	pytest tests/ops -q
	python -m repro canary --corpus
	python -m repro canary --corpus --json --out /tmp/repro_corpus_a.json
	python -m repro canary --corpus --json --out /tmp/repro_corpus_b.json
	cmp /tmp/repro_corpus_a.json /tmp/repro_corpus_b.json

bench:
	pytest benchmarks/ --benchmark-only

bench-paper:  ## only the per-figure/table reproductions (no extensions)
	pytest benchmarks/test_fig*.py benchmarks/test_table*.py benchmarks/test_s5*.py --benchmark-only

perfbench:  ## benchmark self-test, then a short run of all six workloads (exit 1 on any output check)
	python -m pytest perfbench -q
	python3 perfbench/run.py --seconds 0.45 --rounds 1

docs:
	python tools/gen_api_docs.py

examples:
	for ex in examples/*.py; do echo "== $$ex"; python $$ex > /dev/null || exit 1; done

lint:
	python -m compileall -q src tests benchmarks examples tools perfbench

AUDIT_OUT ?= /tmp/repro-audit
# One invocation per CLI verb, as CI, README.md and docs/ quote them.
AUDIT_CLI = gateway pmtud upf "upf --mtu 1500" survey fig5a \
	"metrics --format prometheus" "trace --summary" "spans --summary" \
	"flight --seed 0" "incident --matrix --seed 0" timeline alerts \
	"resilience-report --profile mixed --seed 101" "attacks --json" \
	"canary --corpus --json" "fleet --quick --loss-drill --json"

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
