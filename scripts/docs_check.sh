#!/usr/bin/env bash
# docs_check.sh — the docs lint behind `make docs-check` (CI: docs job).
#
# The repo's load-bearing invariants (determinism contract, cache
# lanes, wire formats, the §9 accuracy contract) live in prose as much
# as in code. This gate keeps the prose wired to the code:
#
#   1. every internal/* package has a doc.go whose first line is a
#      `// Package <name> ...` comment
#   2. every DESIGN.md section referenced from Go comments (§N) has a
#      matching `## §N ` heading in DESIGN.md
#   3. every HTTP route registered in cmd/imdppd
#      (`HandleFunc("METHOD /path")`) appears in README.md
#   4. every fuzz target (`func Fuzz*` in a _test.go file) is run by
#      the Makefile `fuzz` target
#   5. every `make <target>` named in README.md or DESIGN.md (inline
#      code, or a `make` line in a fenced block) is a Makefile target
#   6. the `Flags` block of cmd/imdppd's package comment names exactly
#      the flags parseConfig registers (`fs.*Var(&..., "<name>"`)
#
# Usage:
#   scripts/docs_check.sh              # lint the working tree
#   scripts/docs_check.sh --self-test  # prove the gate can fail: copy
#                                      # the tree, break each invariant
#                                      # in turn, assert detection
set -u

repo_root=$(cd "$(dirname "$0")/.." && pwd)

check_tree() {
	local root=$1 fail=0 dir pkg doc first n ref route routes fuzz target targets documented registered

	# 1. package docs
	for dir in "$root"/internal/*/; do
		pkg=$(basename "$dir")
		doc="$dir/doc.go"
		if [ ! -f "$doc" ]; then
			echo "docs-check: internal/$pkg: missing doc.go" >&2
			fail=1
			continue
		fi
		first=$(head -n 1 "$doc")
		case "$first" in
		"// Package $pkg "*) ;;
		*)
			echo "docs-check: internal/$pkg/doc.go: first line must be '// Package $pkg ...' (got: $first)" >&2
			fail=1
			;;
		esac
	done

	# 2. DESIGN.md § anchors referenced from Go comments
	for n in $(grep -rhoE '§[0-9]+' --include='*.go' "$root" 2>/dev/null | tr -d '§' | sort -un); do
		if ! grep -q "^## §$n " "$root/DESIGN.md" 2>/dev/null; then
			echo "docs-check: DESIGN.md: no '## §$n ' heading, but §$n is referenced from Go comments:" >&2
			grep -rlE "§$n([^0-9]|\$)" --include='*.go' "$root" | sed "s|^$root/|  |" >&2
			fail=1
		fi
	done

	# 3. daemon routes documented in README (read from a here-string, not
	# a pipe, so the failures survive the loop)
	routes=$(grep -hoE 'HandleFunc\("[A-Z]+ [^"]+"' "$root"/cmd/imdppd/*.go 2>/dev/null | sed -E 's/HandleFunc\("([^"]+)"/\1/')
	while IFS= read -r route; do
		[ -z "$route" ] && continue
		if ! grep -qF "$route" "$root/README.md" 2>/dev/null; then
			echo "docs-check: README.md: cmd/imdppd registers '$route' but the README never mentions it" >&2
			fail=1
		fi
	done <<<"$(sort -u <<<"$routes")"

	# 4. fuzz targets wired into `make fuzz` (its recipe is the tab-led
	# block under the `fuzz:` rule)
	target=$(awk '/^fuzz:/ { on = 1; next } on && /^\t/ { print; next } on { exit }' "$root/Makefile" 2>/dev/null)
	while IFS= read -r fuzz; do
		[ -z "$fuzz" ] && continue
		if ! grep -qF "'^$fuzz\$\$'" <<<"$target"; then
			echo "docs-check: Makefile: the fuzz target never runs $fuzz" >&2
			fail=1
		fi
	done <<-FUZZ
		$(grep -rhoE '^func Fuzz[A-Za-z0-9_]+' --include='*_test.go' "$root" 2>/dev/null | sed 's/^func //' | sort -u)
	FUZZ

	# 5. make targets the docs name exist in the Makefile
	targets=$(grep -oE '^[a-z][a-z0-9-]*:([^=]|$)' "$root/Makefile" 2>/dev/null | cut -d: -f1)
	while IFS= read -r target; do
		[ -z "$target" ] && continue
		if ! grep -qxF "$target" <<<"$targets"; then
			echo "docs-check: README.md/DESIGN.md name 'make $target' but the Makefile has no such target" >&2
			fail=1
		fi
	done <<-MAKE
		$(awk 'FNR == 1 { fence = 0 }
			/^```/ { fence = !fence; next }
			fence && /^make / { sub(/#.*/, ""); for (i = 2; i <= NF; i++) print $i; next }
			{
				line = $0
				while (match(line, /`make [^`]*`/)) {
					n = split(substr(line, RSTART + 6, RLENGTH - 7), w, " ")
					for (i = 1; i <= n; i++) print w[i]
					line = substr(line, RSTART + RLENGTH)
				}
			}' "$root/README.md" "$root/DESIGN.md" 2>/dev/null | grep -E '^[a-z][a-z0-9-]*$' | sort -u)
	MAKE

	# 6. imdppd's documented flags are the registered ones: the block is
	# the tab-led comment lines under `// Flags`
	documented=$(awk '/^\/\/ Flags/ { on = 1; next } on && /^\/\/\t/ { print; n++; next } on && n { exit }' \
		"$root/cmd/imdppd/main.go" 2>/dev/null | grep -oE ' -[a-z][a-z0-9-]*' | sed 's/^ -//' | sort -u)
	registered=$(grep -oE 'fs\.[A-Za-z]+Var\(&[^,]+, "[a-z][a-z0-9-]*"' "$root/cmd/imdppd/main.go" 2>/dev/null |
		sed -E 's/.*"([^"]+)"$/\1/' | sort -u)
	if [ -z "$registered" ] || [ "$documented" != "$registered" ]; then
		echo "docs-check: cmd/imdppd/main.go: the package comment's Flags block does not match parseConfig" >&2
		diff <(echo "$documented") <(echo "$registered") | sed -nE 's/^< (.*)/  documented, not registered: -\1/p; s/^> (.*)/  registered, not documented: -\1/p' >&2
		fail=1
	fi

	return $fail
}

self_test() {
	local tmp pass=0
	tmp=$(mktemp -d)
	# expand now: $tmp is a function local, gone by script-exit time
	trap "rm -rf '$tmp'" EXIT

	copy() {
		rm -rf "$tmp/tree"
		mkdir -p "$tmp/tree"
		(cd "$repo_root" && tar -cf - --exclude .git --exclude '.docs_check_fail' .) | tar -xf - -C "$tmp/tree"
	}

	copy
	if ! check_tree "$tmp/tree" >/dev/null 2>&1; then
		echo "docs-check self-test: FAIL — clean tree did not pass" >&2
		check_tree "$tmp/tree" >&2 || true
		return 1
	fi

	copy
	rm "$tmp/tree/internal/sketch/doc.go"
	if check_tree "$tmp/tree" >/dev/null 2>&1; then
		echo "docs-check self-test: FAIL — removing internal/sketch/doc.go went undetected" >&2
		return 1
	fi

	copy
	sed -i 's/^## §9 .*/## (section deliberately removed by self-test)/' "$tmp/tree/DESIGN.md"
	if check_tree "$tmp/tree" >/dev/null 2>&1; then
		echo "docs-check self-test: FAIL — removing the DESIGN.md §9 anchor went undetected" >&2
		return 1
	fi

	copy
	sed -i 's|POST /v1/sigma||g' "$tmp/tree/README.md"
	if check_tree "$tmp/tree" >/dev/null 2>&1; then
		echo "docs-check self-test: FAIL — dropping 'POST /v1/sigma' from README went undetected" >&2
		return 1
	fi

	copy
	sed -i '/FuzzDecodeRowsBinary/d' "$tmp/tree/Makefile"
	if check_tree "$tmp/tree" >/dev/null 2>&1; then
		echo "docs-check self-test: FAIL — dropping FuzzDecodeRowsBinary from 'make fuzz' went undetected" >&2
		return 1
	fi

	copy
	sed -i '/^load-smoke:/,/^$/d' "$tmp/tree/Makefile"
	if check_tree "$tmp/tree" >/dev/null 2>&1; then
		echo "docs-check self-test: FAIL — deleting the load-smoke Makefile target went undetected" >&2
		return 1
	fi

	copy
	sed -i '/^\/\/\tcaches /s/$/ -grid-cache-dir/' "$tmp/tree/cmd/imdppd/main.go"
	if check_tree "$tmp/tree" >/dev/null 2>&1; then
		echo "docs-check self-test: FAIL — a stale -grid-cache-dir in imdppd's Flags block went undetected" >&2
		return 1
	fi

	echo "docs-check self-test: ok (clean tree passes; 6 deliberate breaks detected)"
	return 0
}

case "${1:-}" in
--self-test)
	self_test
	;;
"")
	if check_tree "$repo_root"; then
		echo "docs-check: ok"
	else
		exit 1
	fi
	;;
*)
	echo "usage: $0 [--self-test]" >&2
	exit 2
	;;
esac
