# Convenience targets for the reproduction.

.PHONY: install test bench perf loc scale-smoke examples campaign-smoke faults-smoke telemetry-smoke ckpt-smoke fluid-smoke vfs-smoke ingest-smoke spans-smoke ledger-smoke clean all

CAMPAIGN_CACHE ?= .campaign-cache

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

perf:
	PYTHONPATH=src:. python benchmarks/bench_kernel_micro.py --scale small
	PYTHONPATH=src:. python benchmarks/bench_ppfs_micro.py --scale small
	PYTHONPATH=src:. python benchmarks/bench_faults_overhead.py
	PYTHONPATH=src:. python benchmarks/bench_telemetry_overhead.py
	PYTHONPATH=src:. python benchmarks/bench_ckpt_burst.py --scale small
	PYTHONPATH=src:. python benchmarks/bench_fluid.py --scale small
	PYTHONPATH=src:. python benchmarks/bench_ingest.py --scale small
	PYTHONPATH=src:. python benchmarks/bench_spans_overhead.py

# Size and hook counts, tracked like timings: src and test line totals,
# `spans is (not) None` hook sites, telemetry hook sites (`telem is (not)
# None` guards and reads of the I/O-node histogram hook) and os.environ
# reads under src/repro.
loc:
	@echo "src lines:        $$(find src/repro -name '*.py' -exec cat {} + | wc -l)"
	@echo "test lines:       $$(find tests -name '*.py' -exec cat {} + | wc -l)"
	@echo "spans hook sites: $$(grep -rE --include='*.py' 'spans is (not )?None' src/repro | wc -l)"
	@echo "telemetry hook sites: $$(grep -rnE --include='*.py' 'telem is (not )?None|= (self|ion)\._telem$$' src/repro | wc -l)"
	@echo "os.environ reads: $$(grep -rn --include='*.py' 'os\.environ' src/repro | wc -l)"
	@grep -rn --include='*.py' 'os\.environ' src/repro | sed 's/^/  /' || true

# Production-preset (2048-node) smoke: full machine, trimmed ESCAT workload.
scale-smoke:
	PYTHONPATH=src:. python benchmarks/bench_production_scale.py --smoke

examples:
	for ex in examples/*.py; do echo "== $$ex =="; PYTHONPATH=src:. python $$ex || exit 1; done

campaign-smoke:
	PYTHONPATH=src python -m repro campaign run --name smoke \
		--apps escat,render,htf --fs pfs,ppfs \
		--policies none,passthrough,escat_tuned --jobs 4 \
		--cache-dir $(CAMPAIGN_CACHE) --quiet
	PYTHONPATH=src python -m repro campaign status --cache-dir $(CAMPAIGN_CACHE)
	PYTHONPATH=src python -m repro campaign clean --cache-dir $(CAMPAIGN_CACHE)

faults-smoke:
	PYTHONPATH=src python -m repro faults example --out $(CAMPAIGN_CACHE).plan.json
	PYTHONPATH=src python -m repro campaign run --name faults-smoke \
		--apps escat,render,checkpoint --fs pfs,ppfs \
		--policies none,escat_tuned,two_level \
		--faults none,$(CAMPAIGN_CACHE).plan.json \
		--jobs 2 --cache-dir $(CAMPAIGN_CACHE) --quiet
	PYTHONPATH=src python -m repro campaign status --cache-dir $(CAMPAIGN_CACHE)
	PYTHONPATH=src python -m repro campaign clean --cache-dir $(CAMPAIGN_CACHE)
	rm -f $(CAMPAIGN_CACHE).plan.json

telemetry-smoke:
	PYTHONPATH=src python -m repro run escat --telemetry 1.0 \
		--save-dir $(CAMPAIGN_CACHE).telemetry
	PYTHONPATH=src python -m repro telemetry report \
		$(CAMPAIGN_CACHE).telemetry/escat.telemetry.jsonl
	PYTHONPATH=src python -m repro telemetry show \
		$(CAMPAIGN_CACHE).telemetry/escat.telemetry.jsonl --column mesh.bytes
	PYTHONPATH=src python -m repro telemetry export \
		$(CAMPAIGN_CACHE).telemetry/escat.telemetry.jsonl --format prom \
		--out $(CAMPAIGN_CACHE).telemetry/escat.prom
	PYTHONPATH=src python -m repro campaign run --name telemetry-smoke \
		--apps escat --fs ppfs --telemetry none,1.0 \
		--cache-dir $(CAMPAIGN_CACHE) --quiet
	PYTHONPATH=src python -m repro campaign clean --cache-dir $(CAMPAIGN_CACHE)
	rm -rf $(CAMPAIGN_CACHE).telemetry

ckpt-smoke:
	PYTHONPATH=src python -m repro run checkpoint --burst-buffer 16MB --mtbf 100
	PYTHONPATH=src python -m repro campaign run --name ckpt-smoke \
		--apps checkpoint --burst-buffers none,4MB --jobs 2 \
		--cache-dir $(CAMPAIGN_CACHE) --quiet
	PYTHONPATH=src python -m repro campaign status --cache-dir $(CAMPAIGN_CACHE)
	PYTHONPATH=src python -m repro campaign clean --cache-dir $(CAMPAIGN_CACHE)

# Fluid-fidelity smoke: one CLI run under --fidelity fluid, then the
# fluid bench (small scale), which checks the makespan error bound and
# emits BENCH_fluid.json.
fluid-smoke:
	PYTHONPATH=src python -m repro run htf --fidelity fluid
	PYTHONPATH=src:. python benchmarks/bench_fluid.py --scale small

# Bring-your-own-app smoke: run a real Python program (an out-of-core
# sort) against the simulated machine and characterize its trace.
vfs-smoke:
	PYTHONPATH=src python examples/byoapp_sort.py > /dev/null
	PYTHONPATH=src python -m pytest tests/test_vfs.py -q

# Spans smoke: record causal spans and telemetry for one run, then drive
# every consumer surface — report, per-request tree, critical path with
# its slowest ops, and Chrome trace-event export (loadable in Perfetto /
# chrome://tracing), alone and with the telemetry counters spliced in
# (the merged file must parse).  A fluid-fidelity HTF capture then puts
# fluid.plan roots through the critical path.
spans-smoke:
	PYTHONPATH=src python -m repro run escat --spans --telemetry 1.0 \
		--save-dir $(CAMPAIGN_CACHE).spans
	PYTHONPATH=src python -m repro spans report \
		$(CAMPAIGN_CACHE).spans/escat.spans.jsonl
	PYTHONPATH=src python -m repro spans show \
		$(CAMPAIGN_CACHE).spans/escat.spans.jsonl --limit 3
	PYTHONPATH=src python -m repro spans critical-path \
		$(CAMPAIGN_CACHE).spans/escat.spans.jsonl --ops 2
	PYTHONPATH=src python -m repro spans export \
		$(CAMPAIGN_CACHE).spans/escat.spans.jsonl --format chrome \
		--out $(CAMPAIGN_CACHE).spans/escat.chrome.json
	PYTHONPATH=src python -m repro spans export \
		$(CAMPAIGN_CACHE).spans/escat.spans.jsonl --format chrome \
		--telemetry $(CAMPAIGN_CACHE).spans/escat.telemetry.jsonl \
		--out $(CAMPAIGN_CACHE).spans/escat.merged.json
	python -c "import json,sys; json.load(open(sys.argv[1]))" \
		$(CAMPAIGN_CACHE).spans/escat.merged.json
	PYTHONPATH=src python -m repro run htf --fidelity fluid --spans \
		--save-dir $(CAMPAIGN_CACHE).spans/fluid
	PYTHONPATH=src python -m repro spans critical-path \
		$(CAMPAIGN_CACHE).spans/fluid/htf.spans.jsonl --ops 2
	rm -rf $(CAMPAIGN_CACHE).spans

# Ledger smoke: every benchmark workload at small scale, one round, with
# its correctness gates, then the ledger's own tests.
ledger-smoke:
	PYTHONPATH=src:. python perfledger/ledger.py --smoke
	PYTHONPATH=src:. python -m pytest perfledger/test_ledger.py -q

# Ingest smoke: capture a trace, export it, convert it back to SDDF and
# characterize both SDDF files, re-ingest and replay it through the CLI,
# then run it as a campaign trace axis.
ingest-smoke:
	PYTHONPATH=src python -m repro run escat --save-dir $(CAMPAIGN_CACHE).ingest
	PYTHONPATH=src python -m repro ingest convert \
		$(CAMPAIGN_CACHE).ingest/escat.sddf $(CAMPAIGN_CACHE).ingest/escat.jsonl
	PYTHONPATH=src python -m repro ingest convert \
		$(CAMPAIGN_CACHE).ingest/escat.jsonl $(CAMPAIGN_CACHE).ingest/escat.rt.sddf
	PYTHONPATH=src python -m repro characterize $(CAMPAIGN_CACHE).ingest/escat.sddf
	PYTHONPATH=src python -m repro characterize $(CAMPAIGN_CACHE).ingest/escat.rt.sddf
	PYTHONPATH=src python -m repro ingest replay \
		$(CAMPAIGN_CACHE).ingest/escat.jsonl --think anchor
	PYTHONPATH=src python -m repro campaign run --name ingest-smoke \
		--apps trace --traces $(CAMPAIGN_CACHE).ingest/escat.jsonl \
		--cache-dir $(CAMPAIGN_CACHE) --quiet
	PYTHONPATH=src python -m repro campaign clean --cache-dir $(CAMPAIGN_CACHE)
	rm -rf $(CAMPAIGN_CACHE).ingest

outputs:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +

all: install test bench
