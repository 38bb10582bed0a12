// Package lint is the repository's own Go-source linter — rules that
// gofmt and go vet cannot express because they encode project policy,
// not language correctness:
//
//  1. No hand-rolled system-name dispatch. Target systems are
//     registered descriptors (internal/system); a switch over the
//     built-in system names outside the registry and the application
//     packages reintroduces the per-system plumbing the registry
//     removed, and silently misses externally-registered systems.
//  2. No ambient nondeterminism in deterministic paths. The explorer,
//     the scenario language and the distributed trace harness promise
//     byte-identical results for the same inputs and seed; time.Now,
//     time.Since and math/rand in those packages break replay and
//     store reuse. Wall-clock elapsed reporting is allowlisted
//     explicitly.
//
// cmd/lfi-lintgo wires it into the build (CI runs it beside go vet).
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Issue is one policy violation.
type Issue struct {
	Pos  string // file:line:col, file slash-separated and root-relative
	Rule string // "system-switch" or "determinism"
	Msg  string
}

func (i Issue) String() string { return i.Pos + ": " + i.Rule + ": " + i.Msg }

// systemNames are the built-in target systems. The linter is the one
// deliberate place outside internal/system that spells them out: it is
// the tool that keeps every other such list from existing.
var systemNames = map[string]bool{
	"minidb":  true,
	"minidns": true,
	"minivcs": true,
	"miniweb": true,
	"pbft":    true,
	"raft":    true,
}

// deterministicDirs are package directories whose non-test sources
// must not consult wall clocks or the global random source.
var deterministicDirs = []string{
	"internal/explore",
	"internal/scenario",
	"internal/distharness",
	"internal/pbft",
	"internal/netsim",
}

// clockAllowlist exempts files whose only clock use is reporting how
// long a run took — elapsed time is presented to humans, never fed
// back into scheduling or results.
var clockAllowlist = map[string]bool{
	"internal/explore/explore.go": true,
	"internal/explore/multi.go":   true,
}

// Run lints every non-test .go file under root and returns the issues
// sorted by position. root is typically the repository root.
func Run(root string) ([]Issue, error) {
	var issues []Issue
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		issues = append(issues, lintFile(fset, f, rel)...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(issues, func(i, j int) bool { return issues[i].Pos < issues[j].Pos })
	return issues, nil
}

func lintFile(fset *token.FileSet, f *ast.File, rel string) []Issue {
	var issues []Issue
	at := func(pos token.Pos) string {
		p := fset.Position(pos)
		return fmt.Sprintf("%s:%d:%d", rel, p.Line, p.Column)
	}

	if !strings.HasPrefix(rel, "internal/system/") && !strings.HasPrefix(rel, "internal/apps/") {
		issues = append(issues, systemSwitches(f, at)...)
	}
	if inDeterministicDir(rel) {
		issues = append(issues, nondeterminism(f, rel, at)...)
	}
	return issues
}

func inDeterministicDir(rel string) bool {
	for _, dir := range deterministicDirs {
		if strings.HasPrefix(rel, dir+"/") {
			return true
		}
	}
	return false
}

// systemSwitches flags switch statements dispatching on the built-in
// system names: two or more case clauses whose expressions are string
// literals naming registered systems.
func systemSwitches(f *ast.File, at func(token.Pos) string) []Issue {
	var issues []Issue
	ast.Inspect(f, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		var names []string
		for _, stmt := range sw.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok {
				continue
			}
			for _, e := range cc.List {
				lit, ok := e.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				if s, err := strconv.Unquote(lit.Value); err == nil && systemNames[s] {
					names = append(names, s)
				}
			}
		}
		if len(names) >= 2 {
			issues = append(issues, Issue{
				Pos:  at(sw.Pos()),
				Rule: "system-switch",
				Msg: fmt.Sprintf("switch dispatches on system names (%s); resolve through the internal/system registry instead",
					strings.Join(names, ", ")),
			})
		}
		return true
	})
	return issues
}

// nondeterminism flags math/rand imports and time.Now / time.Since
// calls in deterministic packages.
func nondeterminism(f *ast.File, rel string, at func(token.Pos) string) []Issue {
	var issues []Issue
	timeName := "" // local name of the "time" import, "" if absent
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		switch path {
		case "math/rand", "math/rand/v2":
			issues = append(issues, Issue{
				Pos:  at(imp.Pos()),
				Rule: "determinism",
				Msg:  fmt.Sprintf("%s imported in a deterministic package; derive randomness from the run seed", path),
			})
		case "time":
			timeName = "time"
			if imp.Name != nil {
				timeName = imp.Name.Name
			}
		}
	}
	if timeName == "" || timeName == "_" || clockAllowlist[rel] {
		return issues
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok || ident.Name != timeName || ident.Obj != nil {
			return true
		}
		if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
			issues = append(issues, Issue{
				Pos:  at(sel.Pos()),
				Rule: "determinism",
				Msg:  fmt.Sprintf("time.%s in a deterministic package; results must not depend on the wall clock", sel.Sel.Name),
			})
		}
		return true
	})
	return issues
}
