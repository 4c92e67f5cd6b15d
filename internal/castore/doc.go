// Package castore is the content-addressed store under the serving
// stack's three memo lanes — the result, sketch and grid caches
// (DESIGN.md §6, §9, §10). Each lane is a key scheme and a cost over
// one in-memory Store, which owns the rest: an LRU bounded by summed
// entry cost, singleflight and the counters.
//
// Begin is the general access path: a hit, an owned Ticket (compute,
// then Commit or Abort) or a joined Ticket (Wait, preemptible by the
// waiter's own stop). A joiner whose owner aborts gets ok=false and
// may Begin again as owner, so one caller's cancellation never fails
// another. Get and Put serve callers that coalesce requests on their
// own. In-flight entries carry no cost and are never evicted. A Ticket
// holds its flight's done channel; settling closes it and clears it
// from the entry, so a committed entry keeps no channel.
package castore
