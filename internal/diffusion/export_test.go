package diffusion

import "testing"

// GoldenProblem hands the absolute goldens' instance to the external
// test package, where the distribution gate checks the engine on it.
func GoldenProblem(t testing.TB) *Problem { return goldenProblem(t) }

// ClampedProblem hands clampedProblem, whose base preferences need
// clamping, to the distribution gate.
func ClampedProblem(t testing.TB) *Problem { return clampedProblem(t) }
