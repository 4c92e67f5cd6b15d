// Package fleettest provides the shard-layer chaos harness (DESIGN.md
// §13): a misbehaving-worker proxy that injects the failure modes a
// real fleet meets — dropped requests, added latency, connection
// resets, truncated reply frames, and spurious errors — between a
// coordinator and an otherwise healthy worker. It relays the shard
// RPC's frame streams frame by frame (DESIGN.md §8) and the /healthz
// probes request by request, faulting each.
//
// The proxy misbehaves at the transport, never at the math: the worker
// behind it computes every sample it is asked for unchanged, so every
// chaos scenario must still converge to a solve bit-identical to a
// single-process run (the §3 determinism contract) — the coordinator's
// failure detector, failover re-dispatch and local fallback absorb the
// faults. Tests flip the fault mode while a solve is in flight to
// reproduce kill -9, flapping and slow-network conditions on demand.
package fleettest
