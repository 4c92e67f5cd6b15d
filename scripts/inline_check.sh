#!/usr/bin/env bash
# inline_check.sh — the inlining guard behind `make inline-check` (CI:
# test job).
#
# The diffusion engine flips one Bernoulli coin per arc and per PIN row
# entry, so the cost of a coin is most of the cost of an estimate
# (DESIGN.md §3). The engine and the RR walk draw every coin from an
# rng.Stream held in locals, which stays in registers only while the
# coin inlines; a one-line edit can silently undo that. This gate
# builds the engine packages with -gcflags=-m and fails unless
#
#   1. rng.Stream.next, rng.Stream.Bernoulli and rng.(*Rand).Uint64
#      report "can inline"
#   2. every Bernoulli call site in internal/diffusion/simulate.go and
#      internal/sketch/sketch.go reports "inlining call to
#      rng.Stream.Bernoulli"
#
# Usage:
#   scripts/inline_check.sh              # check the working tree
#   scripts/inline_check.sh --self-test  # prove the gate can fail: copy
#                                        # the tree, push next, then
#                                        # Stream.Bernoulli, then Uint64
#                                        # over the inline budget, then
#                                        # draw the purchase coin through
#                                        # the Rand; assert detection
#                                        # each time
set -u

repo_root=$(cd "$(dirname "$0")/.." && pwd)

check_tree() {
	local root=$1 fail=0 out fn file sites line calls inlined

	if ! out=$(cd "$root" && go build -gcflags=-m ./internal/rng ./internal/diffusion ./internal/sketch 2>&1); then
		echo "inline-check: build failed:" >&2
		echo "$out" >&2
		return 1
	fi

	# 1. the generator methods fit the inline budget
	for fn in 'Stream.next' 'Stream.Bernoulli' '(*Rand).Uint64'; do
		if ! grep -E '^internal/rng/rng\.go:' <<<"$out" | cut -d' ' -f2- | grep -qxF "can inline $fn"; then
			echo "inline-check: rng.$fn no longer inlines (over the compiler's inline budget?)" >&2
			fail=1
		fi
	done

	# 2. every call site inlines Bernoulli; comment lines are skipped,
	# and a line with k calls needs k inlining reports
	for file in internal/diffusion/simulate.go internal/sketch/sketch.go; do
		sites=$(grep -nE '\.Bernoulli\(' "$root/$file" | grep -vE '^[0-9]+:[[:space:]]*//' | cut -d: -f1)
		if [ -z "$sites" ]; then
			echo "inline-check: $file: no Bernoulli call sites found; the check would be vacuous" >&2
			fail=1
			continue
		fi
		for line in $sites; do
			calls=$(sed -n "${line}p" "$root/$file" | grep -oE '\.Bernoulli\(' | wc -l)
			inlined=$(grep -cE "^$file:$line:[0-9]+: inlining call to rng\.Stream\.Bernoulli\$" <<<"$out")
			if [ "$inlined" -lt "$calls" ]; then
				echo "inline-check: $file:$line: Bernoulli call not inlined ($inlined of $calls)" >&2
				fail=1
			fi
		done
	done

	return $fail
}

self_test() {
	local tmp fn
	tmp=$(mktemp -d)
	# expand now: $tmp is a function local, gone by script-exit time
	trap "rm -rf '$tmp'" EXIT

	copy() {
		rm -rf "$tmp/tree"
		mkdir -p "$tmp/tree"
		(cd "$repo_root" && tar -cf - --exclude .git --exclude .bench_build .) | tar -xf - -C "$tmp/tree"
	}

	# pad inserts cost-only statements at the top of an rng.go method
	# body, given its signature prefix and its state expression: they
	# compile, change nothing the check reads, and push the method's
	# inline cost well past the budget
	pad() {
		sed -i "/^func $1(/a\\
	$2.s0 += $2.s1 * $2.s2 * $2.s3\\
	$2.s1 += $2.s2 * $2.s3 * $2.s0\\
	$2.s2 += $2.s3 * $2.s0 * $2.s1\\
	$2.s3 += $2.s0 * $2.s1 * $2.s2" "$tmp/tree/internal/rng/rng.go"
	}

	copy
	if ! check_tree "$tmp/tree" >/dev/null 2>&1; then
		echo "inline-check self-test: FAIL — clean tree did not pass" >&2
		check_tree "$tmp/tree" >&2 || true
		return 1
	fi

	for fn in 'Stream.next' 'Stream.Bernoulli' '(*Rand).Uint64'; do
		copy
		case $fn in
		Stream.next) pad '(s Stream) next' s ;;
		Stream.Bernoulli) pad '(s Stream) Bernoulli' s ;;
		'(*Rand).Uint64') pad '(r \*Rand) Uint64' r.s ;;
		esac
		if check_tree "$tmp/tree" 2>&1 | grep -qF "rng.$fn no longer inlines"; then
			continue
		fi
		echo "inline-check self-test: FAIL — pushing $fn over the inline budget went undetected" >&2
		return 1
	done

	# a coin drawn through the Rand again (a call: (*Rand).Bernoulli is
	# over the budget) must fail the call-site check
	copy
	sed -i 's/if s, hit = s\.Bernoulli(pact \* prefX); hit {/if hit = st.rngv.Bernoulli(pact * prefX); hit {/' \
		"$tmp/tree/internal/diffusion/simulate.go"
	if ! check_tree "$tmp/tree" 2>&1 | grep -qF "internal/diffusion/simulate.go:"; then
		echo "inline-check self-test: FAIL — a purchase coin drawn through the Rand went undetected" >&2
		return 1
	fi

	echo "inline-check self-test: ok (clean tree passes; next, Stream.Bernoulli and Uint64 over budget and a Rand-drawn coin detected)"
	return 0
}

case "${1:-}" in
--self-test)
	self_test
	;;
"")
	if check_tree "$repo_root"; then
		echo "inline-check: ok"
	else
		exit 1
	fi
	;;
*)
	echo "usage: $0 [--self-test]" >&2
	exit 2
	;;
esac
