package main

import (
	"strings"
	"testing"
)

// The experiment table is the one list of -exp values; this guards the
// drift the three hand-kept lists it replaced had (usage text naming 10 of
// 19 accepted names, -exp all a third list).
func TestExperimentTable(t *testing.T) {
	usage := strings.Split(strings.TrimPrefix(expUsage(), "experiment: "), ", ")
	inUsage := map[string]bool{}
	for _, n := range usage {
		inUsage[n] = true
	}
	if !inUsage["all"] {
		t.Errorf("usage %q does not offer all", expUsage())
	}

	seen := map[string]bool{"all": true} // "all" is reserved, not a row
	for _, e := range experimentTable {
		if seen[e.name] {
			t.Errorf("experiment %q appears twice (or shadows all)", e.name)
		}
		seen[e.name] = true
		if e.run == nil {
			t.Errorf("experiment %q has no run function", e.name)
		}
		if !inUsage[e.name] {
			t.Errorf("experiment %q missing from usage text %q", e.name, expUsage())
		}
		got := selectExperiments(e.name)
		if len(got) != 1 || got[0].name != e.name {
			t.Errorf("selectExperiments(%q) = %v, want that one row", e.name, got)
		}
	}
	if len(usage) != len(seen) {
		t.Errorf("usage lists %d names, table + all has %d", len(usage), len(seen))
	}

	all := selectExperiments("all")
	if len(all) == 0 {
		t.Fatal("-exp all runs nothing")
	}
	for _, e := range all {
		if !seen[e.name] || !e.inAll {
			t.Errorf("-exp all runs %q, which is not an inAll row of the table", e.name)
		}
		// The default-factor scale run needs minutes and gigabytes.
		if e.name == "scale" {
			t.Error("-exp all must not include scale")
		}
	}

	if got := selectExperiments("no-such-experiment"); got != nil {
		t.Errorf("unknown name selected %v", got)
	}
}
