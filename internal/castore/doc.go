// Package castore is the one bounded in-memory table of the serving
// stack. Its users are the three memo lanes — the result, sketch and
// grid caches (DESIGN.md §6, §9, §10) — and four tables beside them:
// the daemon's dataset memo, the shard worker's problem store, and the
// pool's upload frames and, per worker, acknowledged uploads (§7). Each
// user is a key scheme and a cost over one Store, which owns the rest:
// an LRU bounded by summed entry cost, singleflight and the counters.
//
// Do is the get-or-build path: one build per key across concurrent
// callers; a failed build is not stored, and its joiners begin again,
// so one caller's cancellation never fails another. Begin is the
// general path beneath it: a hit, an owned Ticket (compute, then
// Commit or Abort) or a joined Ticket (Wait, preemptible by the
// waiter's own stop). Get and Put serve callers that coalesce requests
// on their own. In-flight entries carry no cost and are never evicted.
// A Ticket holds its flight's done channel; settling closes it and
// clears it from the entry, so a committed entry keeps no channel.
package castore
