// Package castore is the content-addressed store under the serving
// stack's three memo lanes — the result, sketch and grid caches
// (DESIGN.md §6, §9, §10). Each lane is a key scheme, a cost and a
// codec over one Store, which owns the rest: an LRU bounded by summed
// entry cost, singleflight, an optional verified disk spill and the
// counters.
//
// Begin is the general access path: a hit, an owned Ticket (compute,
// then Commit or Abort) or a joined Ticket (Wait, preemptible by the
// waiter's own stop). A joiner whose owner aborts gets ok=false and
// may Begin again as owner, so one caller's cancellation never fails
// another. Get and Put serve callers that coalesce requests on their
// own. In-flight entries carry no cost and are never evicted.
//
// A spill image is a magic, the full key, the payload length and the
// lane's payload, written tmp-then-rename. Only the exact image of
// the requested key is read back; a missing, truncated, foreign or
// undecodable image — including the per-lane images older builds
// wrote — is a miss, never a value.
package castore
