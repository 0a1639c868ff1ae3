#!/bin/sh
# docs-check: README.md, EXPERIMENTS.md, DESIGN.md and the verify skill
# may only name make targets, `gigabench -exp` ids, backticked
# root-relative files (or files .gitignore names) and Benchmark…/Test…/
# Fuzz… functions that exist. Metrics, Config paths, command flags and
# Service.X / Batch.X / VSwitch.X names are TestDocs' (./service), which
# also generates README's reference tables. Run from the repository root:
# make docs-check (argument: the go command to use).
docs="README.md EXPERIMENTS.md DESIGN.md .claude/skills/verify/SKILL.md"
status=0
bad() {
	echo "docs-check: $1"
	status=1
}

# A make invocation is inline code that starts with it, or a line of a
# fenced block that does; "we make the" in prose is neither.
targets=$(awk '
	FNR == 1 { fence = 0 }
	/^[ \t]*```/ { fence = !fence; next }
	fence { if (match($0, /^[ \t]*(\$ )?make [a-z][a-z0-9-]*/)) { s = substr($0, RSTART, RLENGTH); sub(/.*make /, "", s); print s }; next }
	{ while (match($0, /`make [a-z][a-z0-9-]*/)) { print substr($0, RSTART + 6, RLENGTH - 6); $0 = substr($0, RSTART + RLENGTH) } }
' $docs | sort -u)
for t in $targets; do
	grep -q "^$t:" Makefile || bad "\`make $t\`: no such Makefile target"
done

ids=$(${1:-go} run ./cmd/gigabench -list) || bad "gigabench -list failed"
for id in $(grep -ohE 'gigabench -exp [a-z0-9]+' $docs | awk '{print $3}' | sort -u); do
	[ "$id" = all ] || echo "$ids" | grep -qx "$id" || bad "\`gigabench -exp $id\`: not an experiment gigabench -list prints"
done

# Words of single-line inline code; globs, brace lists and the prN
# placeholder name no one file. An internal/… package path may carry an
# exported symbol (internal/gigaflow.Cache names internal/gigaflow).
paths=$(grep -ohE '`[^`]+`' $docs | tr -d '`' | tr ' \t' '\n\n' | sed -E -e 's|^\./||' -e 's|[,.;:)]*$||' -e 's|^(internal/[^.]*)\.[A-Z].*$|\1|' |
	grep -E '^([A-Za-z0-9_-]+\.(json|md)|(cmd|examples|internal|results)/[^ ]*)$' | grep -vE '[*{}<>]|prN' | sort -u)
for p in $paths; do
	[ -e "$p" ] || grep -qxF "$p" .gitignore || bad "\`$p\`: no such file"
done

# A test cited by name is how a document says "this is checked": the name
# must still be a function. Only a name that opens its code span is read.
defined=$(grep -rhoE --include='*_test.go' '^func (Benchmark|Test|Fuzz)[A-Za-z0-9_]*' . | awk '{print $2}' | sort -u)
for n in $(grep -ohE '`(Benchmark|Test|Fuzz)[A-Za-z0-9_]+' README.md EXPERIMENTS.md DESIGN.md | tr -d '`' | sort -u); do
	echo "$defined" | grep -qx "$n" || bad "\`$n\`: no _test.go defines it"
done

exit $status
