# Development entry points.  `make check` is the full gate: build
# everything, run the test suites, then dogfood the linter on the paper's
# grammars and the example files (expected-ambiguous inputs must exit 1,
# expected-clean ones must exit 0).  `make ci` mirrors the GitHub workflow:
# check plus the bench smoke run, the reproduction checksum gate at jobs 1
# and 4, the robustness and serving gates and a short benchmark run.

CLI := dune exec --no-build -- bin/ucfg_cli.exe
BENCH := dune exec --no-build -- bench/main.exe

# experiments with fully deterministic output (e32's slice counts depend
# on scheduling, so it is run by `smoke` but not checksum-gated)
DET_EXPERIMENTS := e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15 e16 \
  e17 e18 e19 e20 e21 e22 e23 e29 e30 e31

.PHONY: build test lint smoke determinism repro-check chaos timeout-smoke \
  search-resume-smoke check-smoke serve-smoke serve-drain-smoke serve-chaos \
  perfbench-smoke ci check clean

build:
	dune build @all

test:
	dune runtest

lint: build
	$(CLI) lint --list
	@echo "-- example4 n=4 (unambiguous construction, must pass)"
	$(CLI) lint --kind example4 -n 4
	@echo "-- trivial n=3 (one rule per word, must pass)"
	$(CLI) lint --kind trivial -n 3
	@echo "-- log n=6 (Appendix A, ambiguous: lint must exit 1)"
	! $(CLI) lint --kind log -n 6
	@echo "-- example3 t=2 (KMN grammar, ambiguous: lint must exit 1)"
	! $(CLI) lint --kind example3 -n 2
	@echo "-- example grammar files"
	$(CLI) lint --from-file examples/grammars/unambiguous_pairs.cfg
	! $(CLI) lint --from-file examples/grammars/ambiguous_dup.cfg
	@echo "-- Theorem 1(2) NFA (ambiguous: lint must exit 1)"
	! $(CLI) lint --nfa -n 6

smoke: build
	$(BENCH) --smoke

# the whole suite under a 4-domain pool (the experiments' jobs-invariance
# is gated by repro-check)
determinism: build
	UCFG_JOBS=4 dune runtest --force
	@echo "determinism: OK"

# the reproduction gate: the smoke output of every deterministic
# experiment must hash to its line of bench/checksums.txt at jobs 1 and
# at jobs 4.  No target rewrites that file: a change that moves a
# reproduced number edits its line by hand.
repro-check: build
	@mkdir -p _build/repro
	@st=0; for j in 1 4; do \
	  for e in $(DET_EXPERIMENTS); do \
	    echo "$$e $$(UCFG_JOBS=$$j $(BENCH) --smoke $$e | md5sum | cut -d' ' -f1)"; \
	  done > _build/repro/jobs$$j.txt; \
	  diff bench/checksums.txt _build/repro/jobs$$j.txt || \
	    { echo "repro-check: checksum drift at jobs $$j"; st=1; }; \
	done; exit $$st
	@echo "repro-check: OK"

# the full suite must stay green under seeded fault injection: injected
# faults are repaired deterministically by the pool's settle phase, so
# chaos exercises the capture/cancel/drain machinery without changing any
# verdict.  Two fixed seeds, 10% injection, 4 domains.
chaos: build
	UCFG_CHAOS=1066:0.1 UCFG_JOBS=4 dune runtest --force
	UCFG_CHAOS=424242:0.1 UCFG_JOBS=4 dune runtest --force
	@echo "chaos: OK"

# a cooperative deadline on an hours-deep search must exit 124 promptly
# (the GNU timeout convention) at any job count, reporting partial progress
timeout-smoke: build
	@for j in 1 4; do \
	  start=$$(date +%s); \
	  $(CLI) search -n 3 --timeout 1 --jobs $$j; st=$$?; \
	  el=$$(( $$(date +%s) - start )); \
	  if [ $$st -ne 124 ]; then \
	    echo "timeout-smoke: expected exit 124 at jobs=$$j, got $$st"; exit 1; fi; \
	  if [ $$el -gt 3 ]; then \
	    echo "timeout-smoke: took $${el}s at jobs=$$j (limit 3s)"; exit 1; fi; \
	done
	@echo "timeout-smoke: OK"

# an interrupted search must leave a resumable checkpoint: trip the run
# with a tight guard budget (exit 124, checkpoint on disk), resume it
# slice by slice to completion, and the final verdict and replayed node
# count must equal an uninterrupted run's byte for byte
search-resume-smoke: build
	@rm -rf _build/resume && mkdir -p _build/resume
	@$(CLI) search -n 2 --max-nonterminals 2 --budget 80000 \
	  --checkpoint-dir _build/resume --json > _build/resume/slice.json; \
	st=$$?; if [ $$st -ne 124 ]; then \
	  echo "search-resume-smoke: expected exit 124, got $$st"; exit 1; fi
	@ls _build/resume/*/checkpoint > /dev/null || \
	  { echo "search-resume-smoke: no checkpoint written"; exit 1; }
	@i=0; while :; do \
	  $(CLI) search -n 2 --max-nonterminals 2 --budget 80000 \
	    --checkpoint-dir _build/resume --resume --json \
	    > _build/resume/final.json && break; \
	  i=$$((i+1)); if [ $$i -gt 20 ]; then \
	    echo "search-resume-smoke: did not converge in 20 slices"; exit 1; fi; \
	done
	@grep -q '"resumed": true' _build/resume/final.json || \
	  { echo "search-resume-smoke: final slice did not resume"; exit 1; }
	@$(CLI) search -n 2 --max-nonterminals 2 --no-checkpoint --json \
	  > _build/resume/whole.json
	@for f in final whole; do \
	  sed -n 's/.*"minimal_size": \([^,]*\), "nodes_explored": \([0-9]*\), "budget_exhausted": \([a-z]*\).*/\1 \2 \3/p' \
	    _build/resume/$$f.json > _build/resume/$$f.fields; \
	done
	diff _build/resume/final.fields _build/resume/whole.fields
	@echo "search-resume-smoke: OK"

# dogfood `ucfg check` on the examples/ grammar pairs: every exit code is
# asserted (0 holds, 1 fails-with-witness, 2 bad input, 124 guard trip),
# and the JSON verdict must be byte-identical at jobs 1 and 4
check-smoke: build
	@echo "-- universality (counting backend on the certified grammar)"
	$(CLI) check --from-file examples/grammars/full_len2.cfg --universal
	! $(CLI) check --from-file examples/grammars/unambiguous_pairs.cfg --universal
	@echo "-- inclusion both ways (witness on the failing direction)"
	$(CLI) check --from-file examples/grammars/subset_pair.cfg \
	  --includes examples/grammars/unambiguous_pairs.cfg
	! $(CLI) check --from-file examples/grammars/unambiguous_pairs.cfg \
	  --includes examples/grammars/subset_pair.cfg
	@echo "-- equivalence of the two L_4 constructions, with cross-check"
	$(CLI) check --kind log -n 4 --equiv trivial:4 --cross-check
	! $(CLI) check --kind log -n 4 --equiv trivial:3
	@echo "-- disjointness"
	$(CLI) check --from-file examples/grammars/unambiguous_pairs.cfg \
	  --disjoint examples/grammars/disjoint_pair.cfg
	! $(CLI) check --from-file examples/grammars/full_len2.cfg \
	  --disjoint examples/grammars/disjoint_pair.cfg
	@echo "-- usage errors exit 2"
	$(CLI) check --kind log -n 4; test $$? -eq 2
	@echo "-- guard trip exits 124 with a partial verdict"
	$(CLI) check --kind log -n 6 --universal --budget 3; test $$? -eq 124
	@echo "-- JSON verdicts byte-identical at jobs 1 vs 4"
	@mkdir -p _build/determinism
	$(CLI) check --kind log -n 4 --equiv trivial:4 --json --jobs 1 \
	  > _build/determinism/check1.json
	$(CLI) check --kind log -n 4 --equiv trivial:4 --json --jobs 4 \
	  > _build/determinism/check4.json
	diff _build/determinism/check1.json _build/determinism/check4.json
	@echo "check-smoke: OK"

# the serving gate: a daemon on a unix socket, bombarded with the smoke
# profile at jobs 1 and 4.  bombard itself fails on any error response or
# on two responses to the same request differing byte-wise (cold vs warm,
# mem vs disk), and --assert-warm-hits requires a nonzero warm-phase hit
# ratio; the dumps (cache key + result payload per distinct request) must
# additionally be byte-identical across job counts
serve-smoke: build
	@mkdir -p _build/serve
	@set -e; for j in 1 4; do \
	  rm -rf _build/serve/cache$$j _build/serve/sock$$j; \
	  UCFG_JOBS=$$j $(CLI) serve --socket _build/serve/sock$$j \
	    --cache-dir _build/serve/cache$$j & pid=$$!; \
	  i=0; while [ ! -S _build/serve/sock$$j ] && [ $$i -lt 100 ]; do \
	    sleep 0.1; i=$$((i+1)); done; \
	  UCFG_JOBS=$$j $(CLI) bombard --smoke --socket _build/serve/sock$$j \
	    --assert-warm-hits --shutdown --dump _build/serve/dump$$j.txt \
	    --json-out _build/serve/bombard$$j.json; \
	  wait $$pid; \
	done
	diff _build/serve/dump1.txt _build/serve/dump4.txt
	@echo "serve-smoke: OK"

# SIGTERM must drain, not drop: boot a daemon, park a multi-second request
# in flight (rank example4:10 runs ~4 s cold), TERM the daemon mid-request,
# and require (a) the in-flight client still receives its response and
# (b) the daemon exits 0 (graceful drain, not a crash or a kill)
serve-drain-smoke: build
	@set -e; rm -rf _build/drain; mkdir -p _build/drain; \
	$(CLI) serve --socket _build/drain/sock --cache-dir _build/drain/cache \
	  --drain-timeout-ms 30000 & pid=$$!; \
	i=0; while [ ! -S _build/drain/sock ] && [ $$i -lt 100 ]; do \
	  sleep 0.1; i=$$((i+1)); done; \
	$(CLI) bombard --socket _build/drain/sock \
	  --request '{"op": "rank", "kind": "example4", "n": 10}' \
	  > _build/drain/resp.txt & cpid=$$!; \
	sleep 1; \
	kill -TERM $$pid; \
	wait $$cpid || { echo "serve-drain-smoke: in-flight client failed"; \
	  kill -9 $$pid 2> /dev/null; exit 1; }; \
	wait $$pid; st=$$?; \
	if [ $$st -ne 0 ]; then \
	  echo "serve-drain-smoke: daemon exited $$st, want 0"; exit 1; fi
	@grep -q '"ok": true' _build/drain/resp.txt || \
	  { echo "serve-drain-smoke: in-flight request not answered ok"; \
	    cat _build/drain/resp.txt; exit 1; }
	@echo "serve-drain-smoke: OK"

# the adversarial serving gate: seeded socket chaos (partial writes,
# aborts, malformed and oversized frames, slow-loris stalls past the read
# deadline, concurrent bursts through a 2-worker daemon) at jobs 1 and 4.
# The daemon must survive every round and still answer, sheds must carry
# R013 and be absorbed by retry, and the post-chaos cache contents must be
# byte-identical across job counts AND to a chaos-free smoke run
serve-chaos: build
	@set -e; rm -rf _build/chaos; mkdir -p _build/chaos; \
	for j in 1 4; do \
	  UCFG_JOBS=$$j $(CLI) serve --socket _build/chaos/sock$$j \
	    --cache-dir _build/chaos/cache$$j --max-connections 2 \
	    --idle-timeout-ms 400 --max-request-bytes 4096 & pid=$$!; \
	  i=0; while [ ! -S _build/chaos/sock$$j ] && [ $$i -lt 100 ]; do \
	    sleep 0.1; i=$$((i+1)); done; \
	  UCFG_JOBS=$$j $(CLI) bombard --chaos --seed 1066 --stall-ms 900 \
	    --oversize-bytes 8192 --socket _build/chaos/sock$$j \
	    --dump _build/chaos/chaosdump$$j.txt \
	    --json-out _build/chaos/chaos$$j.json --shutdown; \
	  wait $$pid; \
	done; \
	rm -rf _build/chaos/plaincache _build/chaos/plainsock; \
	$(CLI) serve --socket _build/chaos/plainsock \
	  --cache-dir _build/chaos/plaincache & pid=$$!; \
	i=0; while [ ! -S _build/chaos/plainsock ] && [ $$i -lt 100 ]; do \
	  sleep 0.1; i=$$((i+1)); done; \
	$(CLI) bombard --smoke --socket _build/chaos/plainsock --shutdown \
	  --dump _build/chaos/plaindump.txt > /dev/null; \
	wait $$pid
	diff _build/chaos/chaosdump1.txt _build/chaos/chaosdump4.txt
	diff _build/chaos/chaosdump1.txt _build/chaos/plaindump.txt
	@echo "serve-chaos: OK"

# a short research run of the repository benchmark: it builds from
# source and exits 1 on any wrong known answer (|L_n| = 4^n - 3^n and
# tier T2 of the factored fixpoint, tier T1 of the wide fixpoint, the
# pinned search verdicts and node counts, and the other research gates)
perfbench-smoke:
	python3 perfbench/run.py --workload research --seed 1 --seconds 5 --trace 0

check: build test lint check-smoke
	@echo "check: OK"

ci: check smoke determinism repro-check chaos timeout-smoke \
  search-resume-smoke serve-smoke serve-drain-smoke serve-chaos \
  perfbench-smoke
	@echo "ci: OK"

clean:
	dune clean
