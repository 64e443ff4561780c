package structix

import (
	"os"
	"regexp"
	"slices"
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

// TestMakeCIMatchesWorkflow keeps `make ci` and .github/workflows/ci.yml
// one list: the commands of ci.yml's run: steps, in order, must equal the
// ci target's recipe, with its prerequisites (build, vet) expanded to
// their own recipes and $(GO)/$(MAKE) spelled go/make.
func TestMakeCIMatchesWorkflow(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	recipe, workflow := makeRecipe(t, string(mk), "ci"), workflowRuns(string(yml))
	if len(workflow) == 0 {
		t.Fatal("ci.yml has no run: steps: the check covered nothing")
	}
	if slices.Equal(recipe, workflow) {
		return
	}
	for i := 0; i < max(len(recipe), len(workflow)); i++ {
		var m, w string
		if i < len(recipe) {
			m = recipe[i]
		}
		if i < len(workflow) {
			w = workflow[i]
		}
		if m != w {
			t.Fatalf("make ci and ci.yml differ at command %d:\n  make ci: %q\n  ci.yml:  %q", i+1, m, w)
		}
	}
}

// TestMakeExamplesMatchesTree keeps `make examples` in step with the
// examples/ directory: its `go run ./examples/X` lines must name exactly
// the directories there. CI's make examples step is the only thing that
// runs them, so a line left behind by a deleted example, or an example no
// line runs, would otherwise surface only in CI or never.
func TestMakeExamplesMatchesTree(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	run := regexp.MustCompile(`^go run \./examples/([^/\s]+)`)
	var recipe []string
	for _, cmd := range makeRecipe(t, string(mk), "examples") {
		if m := run.FindStringSubmatch(cmd); m != nil {
			recipe = append(recipe, m[1])
		}
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk []string
	for _, e := range entries {
		if e.IsDir() {
			onDisk = append(onDisk, e.Name())
		}
	}
	if len(onDisk) == 0 {
		t.Fatal("examples/ has no directories: the check covered nothing")
	}
	sort.Strings(recipe)
	if !slices.Equal(recipe, onDisk) {
		t.Errorf("make examples runs %v; examples/ holds %v", recipe, onDisk)
	}
}

// makeRecipe returns target's commands with its prerequisites' commands
// first, normalised to what a shell would be handed.
func makeRecipe(t *testing.T, makefile, target string) []string {
	t.Helper()
	lines := strings.Split(makefile, "\n")
	for i, line := range lines {
		deps, ok := strings.CutPrefix(line, target+":")
		if !ok {
			continue
		}
		var cmds []string
		for _, dep := range strings.Fields(deps) {
			cmds = append(cmds, makeRecipe(t, makefile, dep)...)
		}
		for _, l := range lines[i+1:] {
			cmd, ok := strings.CutPrefix(l, "\t")
			if !ok {
				break
			}
			cmd = strings.NewReplacer("$(GO)", "go", "$(MAKE)", "make", "$$", "$").Replace(cmd)
			cmds = append(cmds, strings.TrimSpace(cmd))
		}
		return cmds
	}
	t.Fatalf("Makefile has no %s target", target)
	return nil
}

// workflowRuns returns the commands of a workflow's run: steps in order,
// one per line of a `run: |` block.
func workflowRuns(yml string) []string {
	var cmds []string
	lines := strings.Split(yml, "\n")
	for i := 0; i < len(lines); i++ {
		trimmed := strings.TrimSpace(lines[i])
		trimmed = strings.TrimPrefix(trimmed, "- ")
		cmd, ok := strings.CutPrefix(trimmed, "run:")
		if !ok {
			continue
		}
		if cmd = strings.TrimSpace(cmd); cmd != "|" {
			cmds = append(cmds, cmd)
			continue
		}
		indent := len(lines[i]) - len(strings.TrimLeft(lines[i], " "))
		for i+1 < len(lines) {
			next := lines[i+1]
			if strings.TrimSpace(next) != "" && len(next)-len(strings.TrimLeft(next, " ")) <= indent {
				break
			}
			if c := strings.TrimSpace(next); c != "" {
				cmds = append(cmds, c)
			}
			i++
		}
	}
	return cmds
}
