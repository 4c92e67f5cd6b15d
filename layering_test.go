package imdpp

import (
	"go/build"
	"strings"
	"testing"
)

// TestLayering keeps the serving layer on top: the shard layer and the
// two cache lanes key a problem by diffusion's content digest, so no
// non-test file they build from, directly or through another package
// of this module, imports internal/service.
func TestLayering(t *testing.T) {
	const forbidden = "imdpp/internal/service"
	for _, pkg := range []string{"imdpp/internal/shard", "imdpp/internal/gridcache", "imdpp/internal/sketch"} {
		// path is the import chain from pkg, for the failure message
		var walk func(path []string)
		seen := map[string]bool{}
		walk = func(path []string) {
			imp := path[len(path)-1]
			if seen[imp] {
				return
			}
			seen[imp] = true
			bp, err := build.ImportDir(strings.TrimPrefix(imp, "imdpp/"), 0)
			if err != nil {
				t.Fatalf("%s: %v", imp, err)
			}
			for _, next := range bp.Imports {
				if next == forbidden {
					t.Errorf("%s imports %s", strings.Join(path, " → "), forbidden)
				} else if strings.HasPrefix(next, "imdpp/") {
					walk(append(path[:len(path):len(path)], next))
				}
			}
		}
		walk([]string{pkg})
	}
}
