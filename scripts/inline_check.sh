#!/usr/bin/env bash
# inline_check.sh — the inlining guard behind `make inline-check` (CI:
# test job).
#
# The diffusion engine flips one Bernoulli coin per arc, draws one
# uniform (Stream.Float64) per clean PIN row and a few more per hit
# (subset sampling), and flips one coin per entry of the remaining rows,
# so the cost of a draw is most of the cost of an estimate (DESIGN.md
# §3). The engine and the RR walk take every draw from an rng.Stream
# held in locals, which stays in registers only while the draw
# inlines; a one-line edit can silently undo that. Likewise every Pref
# read of a user with adoptions sums its Δpref on demand, one
# pin.(*Model).Find binary search per adoption, which must not cost a
# call either; and the hot loops read a clean user's preference as
# clampPref of its base preference, which must not cost a call where
# Pref did. propagateFrom's subset samplers over clean friends take
# their no-landing exit in skip, which must inline too; only a landing
# pays skipLog's logarithm, out of line. This gate builds the engine
# packages with -gcflags=-m and fails unless
#
#   1. rng.Stream.next, rng.Stream.Float64, rng.Stream.Bernoulli,
#      rng.(*Rand).Uint64, pin.(*Model).Find and diffusion's clampPref
#      and skip report "can inline"
#   2. every Bernoulli use in internal/diffusion/simulate.go and
#      internal/sketch/sketch.go reports "inlining call to
#      rng.Stream.Bernoulli", every Float64 use in
#      internal/diffusion/simulate.go "inlining call to
#      rng.Stream.Float64", every Find use in
#      internal/diffusion/state.go "inlining call to pin.(*Model).Find",
#      every clampPref use in internal/diffusion/simulate.go,
#      estimate.go and state.go "inlining call to clampPref", and every
#      skip use in internal/diffusion/simulate.go "inlining call to
#      skip"
#
# Usage:
#   scripts/inline_check.sh              # check the working tree
#   scripts/inline_check.sh --self-test  # prove the gate can fail: copy
#                                        # the tree, push next, then
#                                        # Stream.Float64, then
#                                        # Stream.Bernoulli, then Uint64,
#                                        # then Model.Find, then clampPref,
#                                        # then skip
#                                        # over the inline budget, then
#                                        # draw the purchase
#                                        # coin through the Rand, then a
#                                        # skip uniform through a method
#                                        # value; assert detection each
#                                        # time
set -u

repo_root=$(cd "$(dirname "$0")/.." && pwd)

check_tree() {
	local root=$1 fail=0 out fn file qual sites line calls inlined

	if ! out=$(cd "$root" && go build -gcflags=-m ./internal/rng ./internal/pin ./internal/diffusion ./internal/sketch 2>&1); then
		echo "inline-check: build failed:" >&2
		echo "$out" >&2
		return 1
	fi

	# 1. the generator methods fit the inline budget
	for fn in 'Stream.next' 'Stream.Float64' 'Stream.Bernoulli' '(*Rand).Uint64'; do
		if ! grep -E '^internal/rng/rng\.go:' <<<"$out" | cut -d' ' -f2- | grep -qxF "can inline $fn"; then
			echo "inline-check: rng.$fn no longer inlines (over the compiler's inline budget?)" >&2
			fail=1
		fi
	done
	if ! grep -E '^internal/pin/pin\.go:' <<<"$out" | cut -d' ' -f2- | grep -qxF "can inline (*Model).Find"; then
		echo "inline-check: pin.(*Model).Find no longer inlines (over the compiler's inline budget?)" >&2
		fail=1
	fi
	for fn in state:clampPref simulate:skip; do
		if ! grep -E "^internal/diffusion/${fn%%:*}\.go:" <<<"$out" | cut -d' ' -f2- | grep -qxF "can inline ${fn#*:}"; then
			echo "inline-check: diffusion.${fn#*:} no longer inlines (over the compiler's inline budget?)" >&2
			fail=1
		fi
	done

	# 2. every call site inlines its draw or lookup. A site is any use of the
	# method after a dot, a method value included (its call never
	# inlines), or, for a function of the file's own package (its report
	# name is its bare name), any bare call; comment lines and definitions
	# are skipped, and a line with k uses needs k inlining reports
	for site in Bernoulli:internal/diffusion/simulate.go:rng.Stream.Bernoulli \
		Bernoulli:internal/sketch/sketch.go:rng.Stream.Bernoulli \
		Float64:internal/diffusion/simulate.go:rng.Stream.Float64 \
		'Find:internal/diffusion/state.go:pin.(*Model).Find' \
		clampPref:internal/diffusion/simulate.go:clampPref \
		clampPref:internal/diffusion/estimate.go:clampPref \
		clampPref:internal/diffusion/state.go:clampPref \
		skip:internal/diffusion/simulate.go:skip; do
		fn=${site%%:*}
		file=${site#*:}
		qual=${file#*:}
		file=${file%%:*}
		if [ "$fn" = "$qual" ]; then
			use="(^|[^[:alnum:]_.])$fn\\("
		else
			use="\\.$fn\\b"
		fi
		sites=$(grep -nE "$use" "$root/$file" | grep -vE '^[0-9]+:([[:space:]]*//|func )' | cut -d: -f1)
		if [ -z "$sites" ]; then
			echo "inline-check: $file: no $fn call sites found; the check would be vacuous" >&2
			fail=1
			continue
		fi
		for line in $sites; do
			calls=$(sed -n "${line}p" "$root/$file" | grep -oE "$use" | wc -l)
			inlined=$(grep -E "^$file:$line:[0-9]+: " <<<"$out" | cut -d' ' -f2- | grep -cxF "inlining call to $qual")
			if [ "$inlined" -lt "$calls" ]; then
				echo "inline-check: $file:$line: $fn call not inlined ($inlined of $calls)" >&2
				fail=1
			fi
		done
	done

	return $fail
}

self_test() {
	local tmp fn out
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

	for fn in 'Stream.next' 'Stream.Float64' 'Stream.Bernoulli' '(*Rand).Uint64'; do
		copy
		case $fn in
		Stream.next) pad '(s Stream) next' s ;;
		Stream.Float64) pad '(s Stream) Float64' s ;;
		Stream.Bernoulli) pad '(s Stream) Bernoulli' s ;;
		'(*Rand).Uint64') pad '(r \*Rand) Uint64' r.s ;;
		esac
		if check_tree "$tmp/tree" 2>&1 | grep -qF "rng.$fn no longer inlines"; then
			continue
		fi
		echo "inline-check self-test: FAIL — pushing $fn over the inline budget went undetected" >&2
		return 1
	done

	# Model.Find over the budget: cost-only statements that leave x
	# unchanged must fail both the definition and the state.go call sites
	copy
	sed -i '/^func (m \*Model) Find(/a\
	x += y * y * y * y\
	x -= y * y * y * y\
	x += y * y * y * y\
	x -= y * y * y * y\
	x += y * y * y * y\
	x -= y * y * y * y' "$tmp/tree/internal/pin/pin.go"
	out=$(check_tree "$tmp/tree" 2>&1)
	if ! grep -qF "pin.(*Model).Find no longer inlines" <<<"$out" ||
		! grep -qF "internal/diffusion/state.go:" <<<"$out"; then
		echo "inline-check self-test: FAIL — pushing Model.Find over the inline budget went undetected" >&2
		return 1
	fi

	# clampPref over the budget: cost-only statements must fail both the
	# definition and a call site in each file that reads through it
	copy
	sed -i '/^func clampPref(/a\
	v += v * v * v * v\
	v -= v * v * v * v\
	v += v * v * v * v\
	v -= v * v * v * v\
	v += v * v * v * v\
	v -= v * v * v * v\
	v += v * v * v * v\
	v -= v * v * v * v' "$tmp/tree/internal/diffusion/state.go"
	out=$(check_tree "$tmp/tree" 2>&1)
	for fn in simulate estimate state; do
		if ! grep -qF "diffusion.clampPref no longer inlines" <<<"$out" ||
			! grep -qE "internal/diffusion/$fn\.go:[0-9]+: clampPref call not inlined" <<<"$out"; then
			echo "inline-check self-test: FAIL — pushing clampPref over the inline budget went undetected ($fn.go)" >&2
			return 1
		fi
	done

	# skip over the budget: cost-only statements must fail the
	# definition and its call sites in simulate.go
	copy
	sed -i '/^func skip(/a\
	v += v * v * v * v\
	v -= v * v * v * v\
	v += v * v * v * v\
	v -= v * v * v * v' "$tmp/tree/internal/diffusion/simulate.go"
	out=$(check_tree "$tmp/tree" 2>&1)
	if ! grep -qF "diffusion.skip no longer inlines" <<<"$out" ||
		! grep -qE "internal/diffusion/simulate\.go:[0-9]+: skip call not inlined" <<<"$out"; then
		echo "inline-check self-test: FAIL — pushing skip over the inline budget went undetected" >&2
		return 1
	fi

	# a coin drawn through the Rand again (a call: (*Rand).Bernoulli is
	# over the budget) must fail the call-site check
	copy
	sed -i 's/if s, hit = s\.Bernoulli(pact \* prefX); hit {/if hit = st.rngv.Bernoulli(pact * prefX); hit {/' \
		"$tmp/tree/internal/diffusion/simulate.go"
	if ! check_tree "$tmp/tree" 2>&1 | grep -qF "internal/diffusion/simulate.go:"; then
		echo "inline-check self-test: FAIL — a purchase coin drawn through the Rand went undetected" >&2
		return 1
	fi

	# a skip uniform drawn through a method value (a call the compiler
	# does not inline) must fail the Float64 call-site check
	copy
	sed -i 's/s, v = s\.Float64()/draw := s.Float64; s, v = draw()/' \
		"$tmp/tree/internal/diffusion/simulate.go"
	if ! check_tree "$tmp/tree" 2>&1 | grep -qF "Float64 call not inlined"; then
		echo "inline-check self-test: FAIL — a skip uniform drawn through a method value went undetected" >&2
		return 1
	fi

	echo "inline-check self-test: ok (clean tree passes; next, Stream.Float64, Stream.Bernoulli, Uint64, Model.Find, clampPref and skip over budget, a Rand-drawn coin and a method-value uniform detected)"
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
