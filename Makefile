# Convenience aliases; `make check` is the tier-1 gate CI runs.

.PHONY: all build test check bench bench-connections paper-io loc clean

all: build

build:
	dune build

test:
	dune runtest

check: build test

bench:
	dune exec bench/main.exe

# Physical-I/O tables of the reduced Fig. 13/15/17 runs, compared
# exactly with the committed golden file (test/paper_io_gate.sh).
paper-io:
	test/paper_io_gate.sh

# Connection-scaling sweep of the reactor event core (needs a high fd
# soft limit; levels above the limit are skipped with a note).
bench-connections:
	bash -c 'ulimit -n 20000 2>/dev/null; \
	  dune exec bin/rikit.exe -- bench-connections -o BENCH_reactor.json'

# Line counts of the library, the server tier and the executables
# (sources and interfaces).
loc:
	@for d in lib lib/server bin; do \
	  printf '%-11s %6s\n' "$$d/" \
	    "$$(find $$d -name '*.ml' -o -name '*.mli' | xargs cat | wc -l)"; \
	done

clean:
	dune clean
