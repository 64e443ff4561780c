package structix

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestReadmeListsEveryPackage keeps README's package tree (the code block
// under "## Architecture") in step with the repository: every directory
// under internal/ and cmd/ must be named there, and every directory the
// block names must exist.
func TestReadmeListsEveryPackage(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, arch, ok := strings.Cut(string(readme), "\n## Architecture\n")
	if !ok {
		t.Fatal(`README.md has no "## Architecture" section`)
	}
	_, block, ok := strings.Cut(arch, "```\n")
	if ok {
		block, _, ok = strings.Cut(block, "```")
	}
	if !ok {
		t.Fatal("README's Architecture section has no code block")
	}

	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  ([a-z0-9_]+)/`).FindAllStringSubmatch(block, -1) {
		listed["internal/"+m[1]] = true
	}
	for _, m := range regexp.MustCompile(`\bcmd/([a-z0-9_]+)`).FindAllStringSubmatch(block, -1) {
		listed["cmd/"+m[1]] = true
	}

	onDisk := map[string]bool{}
	for _, parent := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				onDisk[parent+"/"+e.Name()] = true
			}
		}
	}
	if len(onDisk) == 0 || len(listed) == 0 {
		t.Fatalf("found %d directories and %d README entries: the check covered nothing", len(onDisk), len(listed))
	}

	var missing, stale []string
	for dir := range onDisk {
		if !listed[dir] {
			missing = append(missing, dir)
		}
	}
	for dir := range listed {
		if !onDisk[dir] {
			stale = append(stale, dir)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("README's package tree omits %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("README's package tree names %v, which do not exist", stale)
	}
}
