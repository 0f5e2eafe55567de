package repro

import (
	"go/build"
	"path/filepath"
	"testing"
)

// untestedPrograms lists the package main directories that have no
// _test.go file yet, each with its reason. TestEveryProgramHasTests fails
// on any other untested program, and on an entry here that has tests now
// or is gone.
var untestedPrograms = map[string]string{
	"cmd/isarun": "waits for ROADMAP item 14",
}

// TestEveryProgramHasTests finds every package main directory in the
// module and fails if one has no _test.go file, so a new untested program
// shows up as a diff to untestedPrograms.
func TestEveryProgramHasTests(t *testing.T) {
	untested := map[string]bool{}
	err := walkPackageDirs(func(dir string) error {
		bp, err := build.ImportDir(filepath.FromSlash(dir), 0)
		if err == nil && bp.Name == "main" && len(bp.TestGoFiles)+len(bp.XTestGoFiles) == 0 {
			untested[dir] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range untested {
		if _, ok := untestedPrograms[dir]; !ok {
			t.Errorf("program %s has no _test.go: test it, or add it to untestedPrograms with a reason", dir)
		}
	}
	for dir := range untestedPrograms {
		if !untested[dir] {
			t.Errorf("untestedPrograms[%q] has tests now, or is gone: drop the entry", dir)
		}
	}
}
