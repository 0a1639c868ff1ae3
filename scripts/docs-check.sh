#!/bin/sh
# docs-check: the living documents may only name what exists. Every
# `make <target>` is a Makefile target, every `gigabench -exp <id>` is an
# id `gigabench -list` prints, and every backticked root-relative *.json /
# *.md / cmd/… / examples/… / results/… path is in the tree (or is a
# generated file .gitignore names), and every gigaflow_… metric name — in
# the documents or in a Go comment of the service or root package — is one
# the code registers, and every backticked Benchmark… / Test… / Fuzz… name
# in the three documents is a function some _test.go defines. CHANGES.md
# and ROADMAP.md are history and are not read. Run from the repository
# root: make docs-check (the one argument is the go command to use).
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
# placeholder name no one file.
paths=$(grep -ohE '`[^`]+`' $docs | tr -d '`' | tr ' \t' '\n\n' | sed -e 's|^\./||' -e 's|[,.;:)]*$||' |
	grep -E '^([A-Za-z0-9_-]+\.(json|md)|(cmd|examples|results)/[^ ]*)$' | grep -vE '[*{}<>]|prN' | sort -u)
for p in $paths; do
	[ -e "$p" ] || grep -qxF "$p" .gitignore || bad "\`$p\`: no such file"
done

# A metric is registered under a string literal in non-test Go. A token
# ending in _ is a family prefix (gigaflow_ct_*) and names no one metric;
# a histogram's _count / _sum / _bucket series stand for their family.
gosrc=$(ls ./*.go service/*.go)
registered=$(grep -rhoE --include='*.go' --exclude='*_test.go' '"gigaflow_[a-z0-9_]+"' . | tr -d '"' | sort -u)
metrics=$({
	grep -ohE 'gigaflow_[a-z0-9_]+(\.go)?' README.md DESIGN.md EXPERIMENTS.md
	grep -ohE '//.*' $gosrc | grep -oE 'gigaflow_[a-z0-9_]+(\.go)?'
} | grep -vE '(_|\.go)$' | sort -u)
for m in $metrics; do
	echo "$registered" | grep -qx -e "$m" -e "$(echo "$m" | sed -E 's/_(count|sum|bucket)$//')" && continue
	at=$(grep -nE "(^|[^a-z0-9_])$m([^a-z0-9_]|\$)" README.md DESIGN.md EXPERIMENTS.md $gosrc | cut -d: -f1,2 | tr '\n' ' ')
	bad "\`$m\`: no such metric (${at% })"
done

# A test cited by name is how a document says "this is checked": the name
# must still be a function. Only a name that opens its code span is read.
defined=$(grep -rhoE --include='*_test.go' '^func (Benchmark|Test|Fuzz)[A-Za-z0-9_]*' . | awk '{print $2}' | sort -u)
for n in $(grep -ohE '`(Benchmark|Test|Fuzz)[A-Za-z0-9_]+' README.md EXPERIMENTS.md DESIGN.md | tr -d '`' | sort -u); do
	echo "$defined" | grep -qx "$n" || bad "\`$n\`: no _test.go defines it"
done

exit $status
