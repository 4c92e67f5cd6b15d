package main

import (
	"math"
	"testing"
)

// TestParseArgs: -fig accepts exactly the paper figure ids, sketch and
// 'all'; ids of the retired solver, shard and grid-cache benches, any
// other unknown id, and a negative or non-finite -scale are rejected
// rather than silently running nothing.
func TestParseArgs(t *testing.T) {
	cases := []struct {
		figs  string
		scale float64
		ok    bool
	}{
		{"all", 1, true},
		{"8a,9", 0.5, true},
		{" tables , case ", 1, true},
		{"sketch", 0.5, true},
		{"all,sketch", 0, true},
		{"solve", 1, false},
		{"shard", 1, false},
		{"gridcache", 1, false},
		{"bogus", 1, false},
		{"8a,bogus", 1, false},
		{"", 1, false},
		{"all", -1, false},
		{"all", math.NaN(), false},
		{"all", math.Inf(1), false},
	}
	for _, tc := range cases {
		if _, err := parseArgs(tc.figs, tc.scale); (err == nil) != tc.ok {
			t.Errorf("parseArgs(%q, %g): err = %v, want ok=%v", tc.figs, tc.scale, err, tc.ok)
		}
	}

	want, err := parseArgs("all", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range figures {
		if !want[f.id] {
			t.Errorf("'all' does not select %s", f.id)
		}
	}
	if want["sketch"] {
		t.Error("'all' selects the sketch harness")
	}
}
