#!/usr/bin/env bash
# reach_check.sh — the reachability guard behind `make reach-check` (CI:
# test job).
#
# Every function under internal/ should be reached by some program:
# the cmd/* binaries, the examples or dysimbench. A function only its
# own tests call is dead weight that still has to be read, kept in step
# and reviewed. Because nearly all of them are exported, staticcheck's
# unused check cannot see them. This gate
#
#   1. builds every main package of both modules with -gcflags=all=-l
#      (inlining off, so every called function keeps a symbol) and reads
#      the linked internal/ functions from `go tool nm`
#   2. lists every func declared in a non-test internal/ file (init
#      excluded) and fails on each one no binary links, unless the
#      allowlist below names it together with the test of live code
#      that needs it as an oracle or fixture
#   3. fails on an allowlist entry that is no longer declared or is now
#      linked, so the list stays exact
#
# Usage:
#   scripts/reach_check.sh              # check the working tree
#   scripts/reach_check.sh --self-test  # prove the gate can fail: copy
#                                       # the tree, add an unreached
#                                       # function and method, assert
#                                       # detection
set -u

repo_root=$(cd "$(dirname "$0")/.." && pwd)

# symbol (as `go tool nm` names it, generic brackets stripped; a
# trailing .* covers a whole package) and the test that needs it
allowlist='
imdpp/internal/graph.(*Graph).Components       TestBarabasiAlbertShape
imdpp/internal/graph.(*Graph).Degrees          TestBarabasiAlbertShape
imdpp/internal/graph.(*Graph).InDegree         TestCSRMatchesNaiveReference
imdpp/internal/kg.(*KG).LookupNodeType         TestKGBasics
imdpp/internal/kg.(*RelTable).S                TestRelTablePathShape
imdpp/internal/kg.(*RelTable).NumPairs         TestRelTablePathShape
imdpp/internal/kg.DiamondMetaGraph             TestDiamondMetaGraphCounts
imdpp/internal/diffusion.(*State).AdoptedList  TestSingleAdoptionKeepsInitRelevance
imdpp/internal/rng.(*Rand).Bernoulli           TestStreamMatchesRand
imdpp/internal/gridcache.GroupKey.Append       TestGroupKeyRoundTrip
imdpp/internal/gridcache.DecodeGroupKey        TestGroupKeyRoundTrip
imdpp/internal/service.(*Service).Cancel       TestCancelRunning
imdpp/internal/dataset.All                     TestAllPresets
imdpp/internal/fleettest.*                     internal/shard TestChaos* (fault proxy)
imdpp/internal/servicetest.*                   cmd/imdppd TestChaos* (burst and fault harness)
'

# declared ROOT: every func in a non-test internal/ file, one per line
# as "symbol<TAB>file:line", named the way the linker names it
declared() {
	(cd "$1" && grep -rnE --include='*.go' '^func ' internal) |
		grep -v '_test\.go:' |
		sed -nE \
			-e 's#^(internal/([^:]*)/[^/:]+\.go):([0-9]+):func \(([A-Za-z_0-9]+ )?\*([A-Za-z_0-9]+)(\[[^]]*\])?\) ([A-Za-z_0-9]+).*#imdpp/internal/\2.(*\5).\7\t\1:\3#p' \
			-e 't' \
			-e 's#^(internal/([^:]*)/[^/:]+\.go):([0-9]+):func \(([A-Za-z_0-9]+ )?([A-Za-z_0-9]+)(\[[^]]*\])?\) ([A-Za-z_0-9]+).*#imdpp/internal/\2.\5.\7\t\1:\3#p' \
			-e 't' \
			-e 's#^(internal/([^:]*)/[^/:]+\.go):([0-9]+):func ([A-Za-z_0-9]+).*#imdpp/internal/\2.\4\t\1:\3#p' |
		awk -F'\t' '$1 !~ /\.init$/'
}

# linked BINDIR: every internal/ function symbol in the binaries
linked() {
	local bin
	for bin in "$1"/*; do
		go tool nm "$bin"
	done |
		sed -nE 's#^ *[0-9a-f]* [A-Za-z] (imdpp/internal/.*)#\1#p' |
		sed -E ':a; s/\[[^][]*\]//; ta'
}

# allowed SYMBOL: whether the allowlist names SYMBOL or its package
allowed() {
	local s=$1 pat
	while read -r pat _; do
		[ -z "$pat" ] && continue
		case $pat in
		*'.*') [ "${s#"${pat%\*}"}" != "$s" ] && return 0 ;;
		*) [ "$s" = "$pat" ] && return 0 ;;
		esac
	done <<<"$allowlist"
	return 1
}

check_tree() {
	local root=$1 fail=0 bin sym where out reached decl
	bin=$(mktemp -d)

	# 1. every main package of both modules, linked with inlining off
	if ! out=$( (cd "$root" && go build -gcflags=all=-l -o "$bin/" ./... &&
		cd dysimbench && go build -gcflags=all=-l -o "$bin/dysimbench" .) 2>&1); then
		echo "reach-check: build failed:" >&2
		echo "$out" >&2
		rm -rf "$bin"
		return 1
	fi
	if [ -z "$(ls "$bin")" ]; then
		echo "reach-check: no main package built; the check would be vacuous" >&2
		rm -rf "$bin"
		return 1
	fi

	reached=$(linked "$bin" | sort -u)
	rm -rf "$bin"
	decl=$(declared "$root" | sort -u)

	# 2. declared, not linked, not allowed
	while IFS=$'\t' read -r sym where; do
		[ -z "$sym" ] && continue
		grep -qxF -- "$sym" <<<"$reached" && continue
		allowed "$sym" && continue
		echo "reach-check: $where: $sym is reached by no program" >&2
		fail=1
	done <<<"$decl"

	# 3. stale allowlist entries
	while read -r sym _; do
		[ -z "$sym" ] && continue
		case $sym in
		*'.*')
			if ! grep -qF -- "${sym%\*}" <<<"$decl"; then
				echo "reach-check: allowlist: $sym matches no declared function" >&2
				fail=1
			fi
			;;
		*)
			if ! cut -f1 <<<"$decl" | grep -qxF -- "$sym"; then
				echo "reach-check: allowlist: $sym is no longer declared; drop the entry" >&2
				fail=1
			elif grep -qxF -- "$sym" <<<"$reached"; then
				echo "reach-check: allowlist: $sym is now reached by a program; drop the entry" >&2
				fail=1
			fi
			;;
		esac
	done <<<"$allowlist"

	return $fail
}

self_test() {
	local tmp out want
	tmp=$(mktemp -d)
	# expand now: $tmp is a function local, gone by script-exit time
	trap "rm -rf '$tmp'" EXIT

	mkdir -p "$tmp/tree"
	(cd "$repo_root" && tar -cf - --exclude .git --exclude .bench_build .) | tar -xf - -C "$tmp/tree"
	if ! check_tree "$tmp/tree" >/dev/null 2>&1; then
		echo "reach-check self-test: FAIL — clean tree did not pass" >&2
		check_tree "$tmp/tree" >&2 || true
		return 1
	fi

	# one unreached exported function and one unreached method
	cat >>"$tmp/tree/internal/graph/graph.go" <<'EOF'

func ReachCheckProbe() int { return 1 }

func (g *Graph) reachCheckProbe() int { return g.n }
EOF
	out=$(check_tree "$tmp/tree" 2>&1)
	for want in 'imdpp/internal/graph.ReachCheckProbe ' 'imdpp/internal/graph.(*Graph).reachCheckProbe '; do
		if ! grep -qF -- "$want" <<<"$out"; then
			echo "reach-check self-test: FAIL — unreached ${want% } went undetected" >&2
			echo "$out" >&2
			return 1
		fi
	done

	echo "reach-check self-test: ok (clean tree passes; an unreached function and method detected)"
	return 0
}

case "${1:-}" in
--self-test)
	self_test
	;;
"")
	if check_tree "$repo_root"; then
		echo "reach-check: ok"
	else
		exit 1
	fi
	;;
*)
	echo "usage: $0 [--self-test]" >&2
	exit 2
	;;
esac
