package diffusion

import "testing"

// GoldenProblem hands the absolute goldens' instance to the external
// test package, where the distribution gate checks the engine on it.
func GoldenProblem(t testing.TB) *Problem { return goldenProblem(t) }

// PooledProblems counts the problems holding an entry in the state-pool
// registry, for the shard worker's lifetime test.
func PooledProblems() int {
	statePools.mu.Lock()
	defer statePools.mu.Unlock()
	return len(statePools.m)
}
