# Developer conveniences. The library itself has no build step.

.PHONY: test bench bench-paper perfbench docs examples lint ops

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
