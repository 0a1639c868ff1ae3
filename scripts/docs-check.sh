#!/bin/sh
# docs-check: the living documents may only name what exists. Every
# `make <target>` is a Makefile target, every `gigabench -exp <id>` is an
# id `gigabench -list` prints, and every backticked root-relative *.json /
# *.md / cmd/… / examples/… / internal/… / results/… path is in the tree (or is a
# generated file .gitignore names), and every gigaflow_… metric name — in
# the documents or in a Go comment of the service or root package — is one
# the code registers, every backticked Benchmark… / Test… / Fuzz… name
# in the three documents is a function some _test.go defines, every
# backticked service config path there ends in a field the service
# declares, every backticked Service.X / service.X in the four names
# something non-test service code declares, and every -flag a backticked
# or fenced command line gives one of the repository's commands is a flag
# that command defines. CHANGES.md
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
# placeholder name no one file. An internal/… package path may carry an
# exported symbol (internal/gigaflow.Cache names internal/gigaflow).
paths=$(grep -ohE '`[^`]+`' $docs | tr -d '`' | tr ' \t' '\n\n' | sed -E -e 's|^\./||' -e 's|[,.;:)]*$||' -e 's|^(internal/[^.]*)\.[A-Z].*$|\1|' |
	grep -E '^([A-Za-z0-9_-]+\.(json|md)|(cmd|examples|internal|results)/[^ ]*)$' | grep -vE '[*{}<>]|prN' | sort -u)
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

# A config path is Config.… or starts at one of its sections, Expiry (gone
# since PR 30) included; every field after its root must be one
# service/service.go declares, so a deleted knob cannot outlive its code
# in the prose.
for f in $(grep -ohE '`[^`]+`' README.md EXPERIMENTS.md DESIGN.md | tr -d '`' | tr ' \t' '\n\n' | sed -E 's|[,.;:)]*$||' |
	grep -E '^(Config|Expiry|Upcall|Latency|Conntrack)(\.[A-Z][A-Za-z0-9]*)+$' | sort -u); do
	for field in $(echo "${f#*.}" | tr . ' '); do
		grep -qE "^[[:space:]]+$field[[:space:]]" service/service.go || { bad "\`$f\`: service config has no field $field"; break; }
	done
done

# A backticked Service.X or service.X names a method, field or
# declaration of non-test service/*.go, so a deleted name cannot outlive
# its code in the prose. service.go is a file, and service.submit_ns and
# its kin are BENCHMARK.json's per-layer metrics.
svcgo=$(ls service/*.go | grep -v '_test\.go$')
for f in $(grep -ohE '`[^`]+`' $docs | sed 's/service\.go//g' | grep -oE '[Ss]ervice\.[A-Za-z_][A-Za-z0-9_]*' | sort -u); do
	grep -qF "\"$f\"" BENCHMARK.json && continue
	n=${f#*.}
	grep -qE "^func (\([^)]*\) )?$n[[(]|^(type|const|var) $n[[:space:][]|^[[:space:]]+$n([[:space:],]|\$)" $svcgo ||
		bad "\`$f\`: non-test service/*.go declares no $n"
done

# A command line is inline code, or a line of a fenced block, that names
# one of the commands under cmd/ (bare, or as its ./cmd/<tool> path);
# every -flag after the name, up to a pipe, a list separator or a comment,
# must be one the command declares through the flag package in its
# non-test sources (-h and -help the package defines itself).
tools="gigabench gfreplay gfctl pipebench p4gen gflint"
flags=$(awk -v tools="$tools" '
	BEGIN { n = split(tools, t, " "); for (i = 1; i <= n; i++) tool[t[i]] = 1 }
	FNR == 1 { fence = 0 }
	/^[ \t]*```/ { fence = !fence; next }
	function scan(line,    words, k, i, w, cur, name) {
		sub(/#.*/, "", line)
		cur = ""
		k = split(line, words, /[ \t]+/)
		for (i = 1; i <= k; i++) {
			w = words[i]
			if (w ~ /^(\||\|\||&&|;|>|2>)$/) { cur = ""; continue }
			name = w; sub(/^(\.\/)?cmd\//, "", name)
			if (name in tool && (name == w || w ~ /cmd\//)) { cur = name; continue }
			if (cur != "" && w ~ /^--?[A-Za-z][A-Za-z0-9_-]*/) {
				sub(/^--?/, "", w); sub(/[^A-Za-z0-9_-].*$/, "", w)
				print cur "," w "," FILENAME ":" FNR
			}
		}
	}
	fence { scan($0); next }
	{ rest = $0; while (match(rest, /`[^`]+`/)) { scan(substr(rest, RSTART + 1, RLENGTH - 2)); rest = substr(rest, RSTART + RLENGTH) } }
' $docs | sort -u)
for e in $flags; do
	tool=${e%%,*} f=${e#*,} at=${e##*,}
	f=${f%%,*}
	[ "$f" = h ] || [ "$f" = help ] && continue
	ls cmd/$tool/*.go | grep -v '_test\.go$' | xargs grep -qE "flag\.[A-Za-z0-9]+\((&[^,]+, *)?\"$f\"" ||
		bad "\`$tool -$f\` ($at): cmd/$tool declares no flag $f"
done

exit $status
