// Package repro_test checks DESIGN.md's "System inventory", the registry
// of what the module implements. Every package has one row, and each row
// names a configuration that runs the package and the tests that check
// the claim the row makes.
package repro_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// inventoryRow is one row of the table. Its Configuration cell is one of:
//   - `substrate`: the package is a mechanism's building block, not a
//     configuration of its own;
//   - "tests of" the packages whose tests import it: a test-support package;
//   - a list of configurations that run the package: an experiment id, a
//     core model (`core.Quorum`), or a program under cmd/ or examples/,
//     with its flags (`ecserver -model quorum`, `cmd/ecdemo`).
type inventoryRow struct {
	pkg       string // the package's directory, relative to the module root
	substrate bool
	testsOf   []string // the directories of the packages whose tests import it
	configs   []string
	checkers  []string // Test and Fuzz functions
}

var (
	inventoryColumns = []string{"Package", "Implements", "Role in the taxonomy", "Configuration", "Checker"}
	backticked       = regexp.MustCompile("`([^`]+)`")
	testFunc         = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
)

// readInventory parses the table that follows the "## System inventory"
// heading of DESIGN.md.
func readInventory(t *testing.T) []inventoryRow {
	t.Helper()
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## System inventory")
	if !ok {
		t.Fatal(`DESIGN.md has no "## System inventory" section`)
	}
	var table [][]string
	for _, line := range strings.Split(section, "\n")[1:] {
		if !strings.HasPrefix(line, "|") {
			if len(table) > 0 {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		table = append(table, cells)
	}
	if len(table) < 2 || !slices.Equal(table[0], inventoryColumns) {
		t.Fatalf("the inventory's columns are not %q", inventoryColumns)
	}
	var rows []inventoryRow
	for _, cells := range table[2:] {
		if len(cells) != len(inventoryColumns) {
			t.Fatalf("inventory row %q has %d cells, want %d", cells, len(cells), len(inventoryColumns))
		}
		pkg := backticked.FindStringSubmatch(cells[0])
		if pkg == nil {
			t.Fatalf("inventory row %q names no package", cells)
		}
		r := inventoryRow{pkg: pkg[1], checkers: quoted(cells[4])}
		switch config := cells[3]; {
		case config == "`substrate`":
			r.substrate = true
		case strings.HasPrefix(config, "tests of "):
			r.testsOf = quoted(config)
		default:
			r.configs = quoted(config)
		}
		rows = append(rows, r)
	}
	return rows
}

func quoted(cell string) []string {
	var out []string
	for _, m := range backticked.FindAllStringSubmatch(cell, -1) {
		out = append(out, m[1])
	}
	return out
}

// goPackage is what go list reports of one package.
type goPackage struct {
	ImportPath, Dir                    string
	GoFiles, TestGoFiles, XTestGoFiles []string
	TestImports, XTestImports          []string
}

func goList(t *testing.T, args ...string) []byte {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
	if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
		t.Fatalf("go list %s: %v\n%s", strings.Join(args, " "), err, ee.Stderr)
	} else if err != nil {
		t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
	}
	return out
}

// modulePackages returns every package of the module by its directory
// relative to the module root, "." being the root.
func modulePackages(t *testing.T) map[string]*goPackage {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string]*goPackage{}
	for dec := json.NewDecoder(bytes.NewReader(goList(t, "-json", "./..."))); dec.More(); {
		p := new(goPackage)
		if err := dec.Decode(p); err != nil {
			t.Fatal(err)
		}
		rel, err := filepath.Rel(root, p.Dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs[filepath.ToSlash(rel)] = p
	}
	return pkgs
}

// TestSystemInventory fails when DESIGN.md's inventory and the module
// disagree: a package without exactly one row, a configuration that runs
// nothing, a checker that is not a test, or a taxonomy row that no
// program links and no experiment runs.
func TestSystemInventory(t *testing.T) {
	rows := readInventory(t)
	pkgs := modulePackages(t)

	t.Run("rows", func(t *testing.T) {
		count := map[string]int{}
		for _, r := range rows {
			if p := pkgs[r.pkg]; p == nil || len(p.GoFiles) == 0 {
				t.Errorf("row %s names no package of the module", r.pkg)
			}
			count[r.pkg]++
		}
		for rel, p := range pkgs {
			if n := count[rel]; len(p.GoFiles) > 0 && n != 1 {
				t.Errorf("package %s has %d rows, want 1", rel, n)
			}
		}
	})

	t.Run("configurations", func(t *testing.T) {
		for _, r := range rows {
			switch {
			case r.substrate:
			case r.testsOf != nil:
				checkTestsOf(t, r, pkgs)
			case len(r.configs) == 0:
				t.Errorf("row %s names no configuration", r.pkg)
			}
			for _, c := range r.configs {
				if !resolves(c, pkgs) {
					t.Errorf("row %s: configuration %q is no experiment, core model or program", r.pkg, c)
				}
			}
		}
	})

	t.Run("checkers", func(t *testing.T) {
		tests := map[string]bool{}
		for _, p := range pkgs {
			for _, f := range append(slices.Clip(p.TestGoFiles), p.XTestGoFiles...) {
				src, err := os.ReadFile(filepath.Join(p.Dir, f))
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range testFunc.FindAllSubmatch(src, -1) {
					tests[string(m[1])] = true
				}
			}
		}
		for _, r := range rows {
			if len(r.checkers) == 0 {
				t.Errorf("row %s names no checker", r.pkg)
			}
			for _, c := range r.checkers {
				if !tests[c] {
					t.Errorf("row %s: checker %s is no test of the module", r.pkg, c)
				}
			}
		}
	})

	t.Run("linked", func(t *testing.T) {
		linked := map[string]bool{}
		for _, path := range strings.Fields(string(goList(t, "-deps", "./cmd/...", "./examples/..."))) {
			linked[path] = true
		}
		for _, r := range rows {
			p := pkgs[r.pkg]
			if r.substrate || r.testsOf != nil || p == nil || linked[p.ImportPath] {
				continue
			}
			if !slices.ContainsFunc(r.configs, isExperiment) {
				t.Errorf("row %s: no program links the package and the row names no experiment", r.pkg)
			}
		}
	})
}

func isExperiment(config string) bool {
	_, ok := experiments.Lookup(config)
	return ok
}

// resolves reports whether config names an experiment, a core model, or
// a program of the module under cmd/ or examples/ (a bare name is one
// under cmd/).
func resolves(config string, pkgs map[string]*goPackage) bool {
	if isExperiment(config) {
		return true
	}
	if name, ok := strings.CutPrefix(config, "core."); ok {
		return slices.ContainsFunc(core.Models, func(m core.Model) bool {
			return strings.EqualFold(strings.ReplaceAll(m.String(), "-", ""), name)
		})
	}
	dir, _, _ := strings.Cut(config, " ")
	if !strings.Contains(dir, "/") {
		dir = "cmd/" + dir
	}
	p := pkgs[dir]
	return p != nil && len(p.GoFiles) > 0 && (strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/"))
}

// checkTestsOf checks a test-support row: the packages it names are
// exactly those whose tests import it.
func checkTestsOf(t *testing.T, r inventoryRow, pkgs map[string]*goPackage) {
	t.Helper()
	p := pkgs[r.pkg]
	if p == nil {
		return // the rows subtest reports it
	}
	var importers []string
	for rel, q := range pkgs {
		if slices.Contains(q.TestImports, p.ImportPath) || slices.Contains(q.XTestImports, p.ImportPath) {
			importers = append(importers, rel)
		}
	}
	slices.Sort(importers)
	named := slices.Clone(r.testsOf)
	if slices.Sort(named); !slices.Equal(named, importers) {
		t.Errorf("row %s names the tests of %q, but the tests of %q import it", r.pkg, named, importers)
	}
}
