package repro

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptUnreferenced lists the exported identifiers under internal/ that no
// code references and that stay anyway, each with its reason.
// TestNoUnreferencedExports fails on any other unreferenced export, and on
// an entry here that is referenced again or gone.
var keptUnreferenced = map[string]string{
	"internal/check.CheckedMatMul":              "§3/§9 result-checker library (DESIGN.md §3); covered by its check tests",
	"internal/check.CheckedSearch":              "§3/§9 result-checker library (DESIGN.md §3); covered by its check tests",
	"internal/cpu.CPU.Halted":                   "machine state the cpu tests read to see a program reach HLT",
	"internal/cpu.FaultCoverage":                "§4 coverage residue behind README's 98% adder claim; TestFaultCoverageSubstantialButIncomplete",
	"internal/detect.ShardedTracker.Reports":    "mirrors Tracker.Reports for the sharded-vs-single equivalence tests",
	"internal/ecc.Mix64Golden":                  "native reference the ecc and selfcheck tests compare the engine-routed Mix64 against",
	"internal/forensics.ModeDB.Count":           "§9 defect-mode API (DESIGN.md §3 forensics row); TestModeDBNovelty reads it back",
	"internal/forensics.ModeDB.Known":           "§9 defect-mode API (DESIGN.md §3 forensics row); TestModeDBNovelty reads it back",
	"internal/isa.Disassemble":                  "assembler round-trip half; FuzzAssemble and the isa tests use it",
	"internal/isa.Mnemonics":                    "assembler round-trip half; FuzzAssemble and the isa tests use it",
	"internal/kvdb.DB.GetCompared":              "E10 replica-dependent index incident (internal/incidents) and the kvdb replica tests use it",
	"internal/kvdb.DB.Put":                      "raw replicated write the E10 incident tests and the kvdb replica tests seed rows with",
	"internal/kvdb.DB.QueryByValue":             "E10 replica-dependent index incident (internal/incidents) and the kvdb replica tests use it",
	"internal/kvdb.DB.QueryByValueCompared":     "E10 replica-dependent index incident (internal/incidents) and the kvdb replica tests use it",
	"internal/kvdb.DB.ReadRepair":               "E10 replica-dependent index incident (internal/incidents) and the kvdb replica tests use it",
	"internal/kvdb.DB.Replicas":                 "E10 replica-dependent index incident (internal/incidents) and the kvdb replica tests use it",
	"internal/kvdb.TolerantDB.RowSuspect":       "suspect-row view of the tolerant store (DESIGN.md §13); the tolerant tests assert it",
	"internal/kvdb.TolerantDB.SuspectRows":      "suspect-row view of the tolerant store (DESIGN.md §13); the tolerant tests assert it",
	"internal/lifecycle.WAL.Seq":                "the pool tests read it to prove an idempotent verb appends no record",
	"internal/mitigate.Executor.TMRWithReplay":  "§7 replay-TMR sketch cited by EXPERIMENTS.md E9 and DESIGN.md §3; four replayexec tests",
	"internal/obs.ReadJSONL":                    "reader half of the trace format; metrics.TestDetectionFromTraceMatchesGroundTruth parses traces with it",
	"internal/replay.Replayer.Position":         "tape introspection the replay tests check positions and labels with",
	"internal/replay.Replayer.Remaining":        "tape introspection the replay tests check positions and labels with",
	"internal/replay.Tape.Label":                "tape introspection the replay tests check positions and labels with",
	"internal/replay.Tape.Len":                  "tape introspection the replay tests check positions and labels with",
	"internal/report.Client.Report":             "§6's one-report call; the report tests drive the single-report route and the client retry policy through it",
	"internal/report.Server.Lifecycle":          "attached ledger the report pool tests read back",
	"internal/sched.Cluster.Machine":            "cluster introspection the sched, quarantine and lifecycle tests assert with",
	"internal/sched.Cluster.PlacedTasks":        "cluster introspection the sched, quarantine and lifecycle tests assert with",
	"internal/sched.Cluster.TaskOn":             "cluster introspection the sched, quarantine and lifecycle tests assert with",
	"internal/selfcheck.Verifier.Compress":      "§7 self-checking library (DESIGN.md §3 selfcheck row); each call has a selfcheck test",
	"internal/selfcheck.Verifier.Copy":          "§7 self-checking library (DESIGN.md §3 selfcheck row); each call has a selfcheck test",
	"internal/selfcheck.Verifier.Decompress":    "§7 self-checking library (DESIGN.md §3 selfcheck row); each call has a selfcheck test",
	"internal/selfcheck.Verifier.DecryptBlocks": "§7 self-checking library (DESIGN.md §3 selfcheck row); each call has a selfcheck test",
	"internal/selfcheck.Verifier.Hash":          "§7 self-checking library (DESIGN.md §3 selfcheck row); each call has a selfcheck test",
	"internal/stats.WilsonInterval":             "statistics substrate pinned by the stats tests",
	"internal/storage.NewStore":                 "E10 GC-lost-live-data incident (internal/incidents, DESIGN.md §3)",
	"internal/storage.Store.CorruptAtRest":      "E10 GC-lost-live-data incident (internal/incidents, DESIGN.md §3)",
	"internal/storage.Store.Delete":             "E10 GC-lost-live-data incident (internal/incidents, DESIGN.md §3)",
	"internal/storage.Store.GC":                 "E10 GC-lost-live-data incident (internal/incidents, DESIGN.md §3)",
	"internal/storage.Store.Get":                "E10 GC-lost-live-data incident (internal/incidents, DESIGN.md §3)",
	"internal/storage.Store.Len":                "E10 GC-lost-live-data incident (internal/incidents, DESIGN.md §3)",
	"internal/storage.Store.PutFromClient":      "E10 GC-lost-live-data incident (internal/incidents, DESIGN.md §3)",
	"internal/storage.Store.Scrub":              "E10 GC-lost-live-data incident (internal/incidents, DESIGN.md §3)",
	"internal/taskrun.NewPool":                  "single-machine harness the taskrun tests and the root BenchmarkAblation* build supervisors on",
	"internal/taskrun.Supervisor.Divergences":   "per-core divergence count the taskrun escalation test asserts",
}

// TestNoUnreferencedExports lists every exported func, type, var, const
// and method declared in a non-test file under internal/ that nothing
// references. A reference counts from any non-test file of the module and
// from any file under bench/, which changes only together with the
// benchmark. A method that implements an interface of a loaded package
// counts as referenced, because a call through the interface never names
// it.
func TestNoUnreferencedExports(t *testing.T) {
	found, err := unreferencedExports()
	if err != nil {
		t.Fatal(err)
	}
	var fresh []string
	for key, pos := range found {
		if _, ok := keptUnreferenced[key]; !ok {
			fresh = append(fresh, pos+": "+key)
		}
	}
	sort.Strings(fresh)
	for _, f := range fresh {
		t.Errorf("%s is exported but nothing references it: delete it, or add it to keptUnreferenced with a reason", f)
	}
	for key, reason := range keptUnreferenced {
		if reason == "" {
			t.Errorf("keptUnreferenced[%q] gives no reason", key)
		}
		if _, ok := found[key]; !ok {
			t.Errorf("keptUnreferenced[%q] is referenced now, or gone: drop the entry", key)
		}
	}
}

const modulePath = "repro"

// moduleChecker type-checks the module's packages from source into one
// shared types.Info, so the uses from every package land in one place.
type moduleChecker struct {
	fset *token.FileSet
	std  types.Importer
	info *types.Info
	pkgs map[string]*types.Package // by import path
}

// Import type-checks module packages itself and hands the standard
// library to the source importer.
func (c *moduleChecker) Import(path string) (*types.Package, error) {
	if dir, ok := strings.CutPrefix(path, modulePath+"/"); ok {
		return c.load(dir)
	}
	return c.std.Import(path)
}

// load type-checks the package in dir, a slash path relative to the module
// root: its non-test files and, under bench/, its test files too.
func (c *moduleChecker) load(dir string) (*types.Package, error) {
	path := modulePath + "/" + dir
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(filepath.FromSlash(dir), 0)
	if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if dir == "bench" || strings.HasPrefix(dir, "bench/") {
		names = append(names, bp.TestGoFiles...)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(c.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: c}
	p, err := conf.Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = p
	return p, nil
}

// unreferencedExports maps each unreferenced export under internal/, as
// "internal/pkg.Name" or "internal/pkg.Type.Method", to its position.
func unreferencedExports() (map[string]string, error) {
	c := &moduleChecker{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		pkgs: map[string]*types.Package{},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil)
	err := walkPackageDirs(func(dir string) error {
		_, err := c.load(dir)
		return err
	})
	if err != nil {
		return nil, err
	}

	used := map[types.Object]bool{}
	for _, obj := range c.info.Uses {
		used[obj] = true
	}
	ifaces := interfacesByMethod(c)
	found := map[string]string{}
	for path, p := range c.pkgs {
		prefix, ok := strings.CutPrefix(path, modulePath+"/")
		if !ok || !strings.HasPrefix(prefix, "internal/") {
			continue
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				found[prefix+"."+name] = c.fset.Position(obj.Pos()).String()
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !implementsAny(named, m.Name(), ifaces) {
					found[prefix+"."+name+"."+m.Name()] = c.fset.Position(m.Pos()).String()
				}
			}
		}
	}
	return found, nil
}

// walkPackageDirs calls fn with every directory below the module root, as
// a slash path, skipping hidden and testdata directories. A
// build.NoGoError from fn skips the directory; any other error stops the
// walk.
func walkPackageDirs(fn func(dir string) error) error {
	return filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == "." {
			return err // the root package holds only tests
		}
		if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
			return filepath.SkipDir
		}
		err = fn(filepath.ToSlash(path))
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		return err
	})
}

// interfacesByMethod indexes by method name every interface declared in a
// loaded package or anything it imports, plus every interface type an
// expression of the module has.
func interfacesByMethod(c *moduleChecker) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return // generic: Implements needs an instance
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byName[name] = append(byName[name], it)
		}
	}
	visited := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range c.pkgs {
		visit(p)
	}
	for _, tv := range c.info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	add(types.Universe.Lookup("error").Type())
	return byName
}

// implementsAny reports whether named or *named implements an interface
// that declares method.
func implementsAny(named *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces[method] {
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}
