#!/usr/bin/env bash
# loc.sh — non-test, non-comment, non-blank Go lines per package, plus the
# total: the number simplicity PRs quote as "less code". A line counts when
# it holds code; whole-line // comments, /* */ blocks and blank lines do
# not. Generated files and _test.go files are skipped.
#
#   scripts/loc.sh                         # every package in the module
#   scripts/loc.sh internal/lake cmd/dialite   # just these directories
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
	dirs=("$@")
else
	mapfile -t dirs < <(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -printf '%h\n' | sort -u | sed 's|^\./||')
fi

total=0
for d in "${dirs[@]}"; do
	d=${d%/}
	files=()
	for f in "$d"/*.go; do
		[ -f "$f" ] || continue
		case "$f" in *_test.go) continue ;; esac
		head -5 "$f" | grep -q '^// Code generated .* DO NOT EDIT\.$' && continue
		files+=("$f")
	done
	[ "${#files[@]}" -gt 0 ] || continue
	n=$(awk '
		{ line = $0; sub(/^[ \t]+/, "", line) }
		inblock { if (index(line, "*/")) inblock = 0; next }
		line == "" || line ~ /^\/\// { next }
		line ~ /^\/\*/ { if (!index(line, "*/")) inblock = 1; next }
		{ n++ }
		END { print n + 0 }
	' "${files[@]}")
	printf '%7d  %s\n' "$n" "$d"
	total=$((total + n))
done
printf '%7d  total\n' "$total"
