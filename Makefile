# Convenience wrappers around dune.  `make check` is the tier-1 gate:
# full build, test suite, and static verification of the example
# kernels (examples/kernels/dune).

.PHONY: all build test check fuzz-smoke serve-smoke reuse-smoke bench bench-smoke bench-guard corpus-smoke corpus-bench corpus-guard clean

all: build

build:
	dune build

test:
	dune runtest

check:
	dune build @check

# Deterministic differential-fuzzing smoke run (the same campaign the
# test/fuzz.t cram test pins down): fixed seed, 50 cases, per-case
# watchdog; findings are shrunk and quarantined under corpus/ and the
# summary line is persisted as corpus/summary.  Exits nonzero if the
# three judges (legality, static validation, interpreter) disagree on
# any case.
fuzz-smoke:
	dune build bin/inltool.exe
	rm -rf corpus
	./_build/default/bin/inltool.exe fuzz --seed 42 --cases 50 --timeout-ms 5000 --corpus corpus

# Serve-daemon acceptance drill (the same one the dune runtest rule
# runs): a 56-request mixed batch including malformed JSON, injected
# solver blowups, a hung request under a deadline and an oversized
# line; then a SIGKILL mid-session and a restart that must come up warm
# from the killed daemon's crash-safe snapshot.
serve-smoke:
	dune build bin/inltool.exe
	sh test/serve_smoke.sh ./_build/default/bin/inltool.exe

# Static reuse-analysis smoke (the same drill the dune runtest rule
# runs): `inltool analyze --reuse` on the paper's kji Cholesky must
# report the pinned findings (U101/U102), scores, and typed degradation
# codes (U901 singular, U902 budget), byte-reproducibly.
reuse-smoke:
	dune build bin/inltool.exe
	sh test/reuse_smoke.sh ./_build/default/bin/inltool.exe

# Layer benchmarks (bench/bench.ml): the solver core under memos
# off/on x jobs 1/2, the autotuner on kji Cholesky at jobs 1/2 and six
# executed (kernel, schedule) rows, each timed cold (memos cleared)
# then warm.  Writes BENCH_layers.json, one inl-bench-v2 row per
# configuration with the core count it was measured on.  Fails if
# outputs differ across configurations or any execution diverges.
bench:
	dune build bench/bench.exe
	./_build/default/bench/bench.exe -o BENCH_layers.json
	cat BENCH_layers.json

# The same harness small, with timings masked (the dune runtest rule):
# asserts byte-equal outputs, the pinned search winner and exec labels.
bench-smoke:
	dune build bench/bench.exe
	./_build/default/bench/bench.exe --smoke --jobs 2

# Layer guard (also the opt-in `dune build @bench-guard` alias, which
# dune caches until the harness or the baseline changes): re-runs the
# benchmarks and exits nonzero if any row's stable fields drift from
# the committed BENCH_layers.json or its cold_ms exceeds 2x the
# committed value.
bench-guard:
	dune build bench/bench.exe
	./_build/default/bench/bench.exe --guard BENCH_layers.json -o /dev/null

# Corpus-runner acceptance drill (the same one the dune runtest rule
# runs): a 4-kernel mini-manifest with a poisoned kernel that must be
# quarantined, a SIGINT drill (exit 130, checkpoint flushed) and a
# SIGKILL drill, both resumed to a report byte-identical to the
# uninterrupted reference.
corpus-smoke:
	dune build bin/inltool.exe
	sh test/corpus_smoke.sh ./_build/default/bin/inltool.exe

# Regenerate BENCH_corpus.json from the committed manifest.  The
# manifest deliberately includes one poisoned kernel (injected hang
# under a tight deadline) so every run exercises the retry ladder and
# the quarantine path — the runner therefore exits 1, which is the
# expected outcome, not a failure of the target.
corpus-bench:
	dune build bin/inltool.exe
	-./_build/default/bin/inltool.exe corpus examples/kernels/corpus.manifest -o BENCH_corpus.json
	cat BENCH_corpus.json

# Corpus drift guard (also the opt-in `dune build @corpus-guard`
# alias): re-runs the committed manifest fresh and untimed, and exits
# nonzero if any kernel's status, winner recipe, miss counts or
# degradation tags drift from the committed BENCH_corpus.json.
corpus-guard:
	dune build @corpus-guard

clean:
	dune clean
