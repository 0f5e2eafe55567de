package repro

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/scenario"
)

// keptUnreferenced lists the exported identifiers under internal/ that no
// code references and that stay anyway, each with its reason.
// TestNoUnreferencedExports fails on any other unreferenced export, and on
// an entry here that is referenced again or gone.
var keptUnreferenced = map[string]string{
	"internal/check.CheckedMatMul":              "§3/§9 result-checker library (DESIGN.md §3); covered by its check tests",
	"internal/check.CheckedSearch":              "§3/§9 result-checker library (DESIGN.md §3); covered by its check tests",
	"internal/cpu.FaultCoverage":                "§4 coverage residue behind README's 98% adder claim; TestFaultCoverageSubstantialButIncomplete",
	"internal/ecc.Mix64Golden":                  "native reference the ecc and selfcheck tests compare the engine-routed Mix64 against",
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
	"internal/report.Client.Report":             "§6's one-report call; the report tests drive the single-report route and the client retry policy through it",
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
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package // by import path
	files map[string][]*ast.File    // the files load checked, by import path
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
	c.files[path] = files
	return p, nil
}

// loadModule type-checks every package of the module.
func loadModule() (*moduleChecker, error) {
	c := &moduleChecker{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil)
	err := walkPackageDirs(func(dir string) error {
		_, err := c.load(dir)
		return err
	})
	return c, err
}

// unreferencedExports maps each unreferenced export under internal/, as
// "internal/pkg.Name" or "internal/pkg.Type.Method", to its position.
func unreferencedExports() (map[string]string, error) {
	c, err := loadModule()
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

// keptUnset lists the knobs that nothing sets to a value other than their
// default and that stay anyway, each with its reason. TestEveryKnobIsSet
// fails on any other unset knob, and on an entry here whose knob is set
// now, or gone.
var keptUnset = map[string]string{
	"cmd/ceectl -actor":              "deployment id: the operator a ledger transition records",
	"cmd/ceectl -source":             "deployment id: the sender a flood's batches are deduplicated by",
	"cmd/ceereportd -notify-webhook": "deployment URL; fleetsim chaos and the remediate tests drive the webhook notifier itself",
	"cmd/fleetsim -scale":            "full scale is EXPERIMENTS.md's configuration, minutes per experiment; small scale is pinned by experiments_output.txt",
	"cmd/isarun -compare":            "cmd/isarun has no test yet: waits for ROADMAP item 14",
	"cmd/isarun -fault":              "cmd/isarun has no test yet: waits for ROADMAP item 14",
	"cmd/isarun -max-cycles":         "cmd/isarun has no test yet: waits for ROADMAP item 14",
	"cmd/isarun -mem":                "cmd/isarun has no test yet: waits for ROADMAP item 14",
	"internal/fleet.Config.SoftwareBugSignalsPerMachineDay": "ROADMAP item 4's noise sweep varies it",
	"internal/fleet.Config.UserReportFraction":              "ROADMAP item 4's noise sweep varies it",
	"internal/scenario.InjectDef.Class":                     "inject_defect's catalog path (Fleet.InjectDefectClass); only the testdata/invalid fixtures set it, to pin its checks",
	"internal/scenario.InjectDef.FreqSens":                  "the frequency third of §2's f/V/T sensitivity; fvt-sensitivity.yaml sets volt_sens and temp_sens",
	"internal/scenario.PointDef.FreqGHz":                    "the frequency third of set_operating_point; fvt-sensitivity.yaml sets voltage_v and temp_c",
}

// TestEveryKnobIsSet holds knobs to what TestNoUnreferencedExports holds
// exports to. A knob is an `scn`-tagged field, a fleet.Config field or a
// flag that a program under cmd/ declares. Each must be set to a value
// other than its default by a scenarios/*.yaml file or by a non-test Go
// file outside the knob's own package (bench/ counts, as above); a flag
// counts as set wherever a test of its program or a CI step passes it. A
// knob that only its default ever runs is a constant: make it one, delete
// it, or add it to keptUnset with a reason.
func TestEveryKnobIsSet(t *testing.T) {
	c, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	knobs, paths := moduleKnobs(c)
	if err := scenarioSets(knobs, paths); err != nil {
		t.Fatal(err)
	}
	goSets(c, knobs)
	if err := flagSets(knobs); err != nil {
		t.Fatal(err)
	}
	var unset []string
	for key, k := range knobs {
		if k.tagged && !k.def.IsValid() {
			t.Errorf("%s: %s is tagged but no scenario section reaches it", k.pos, key)
		}
		if _, kept := keptUnset[key]; !k.set && !kept {
			unset = append(unset, k.pos+": "+key)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is a knob that nothing sets: make it a constant, delete it, or add it to keptUnset with a reason", u)
	}
	for key, reason := range keptUnset {
		if reason == "" {
			t.Errorf("keptUnset[%q] gives no reason", key)
		}
		if k, ok := knobs[key]; !ok || k.set {
			t.Errorf("keptUnset[%q] is set now, or gone: drop the entry", key)
		}
	}
}

// knob is one configuration input: a struct field, keyed
// "internal/pkg.Type.Field", or a program flag, keyed "cmd/prog -name".
type knob struct {
	pos   string
	field types.Object // nil for a flag
	// def is a field's default; a tagged field that no scenario key
	// reaches, and a flag, have none.
	def    reflect.Value
	tagged bool
	set    bool
}

// moduleKnobs lists every knob of the module, and maps each key path a
// scenario file can hold ("fleet.lifecycle.pools.min_healthy") to the
// field it decodes onto.
func moduleKnobs(c *moduleChecker) (map[string]*knob, map[string]string) {
	knobs := map[string]*knob{}
	for path, p := range c.pkgs {
		prefix := strings.TrimPrefix(path, modulePath+"/")
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			config := prefix == "internal/fleet" && name == "Config"
			for i := 0; i < st.NumFields(); i++ {
				_, tagged := reflect.StructTag(st.Tag(i)).Lookup("scn")
				if tagged || config {
					f := st.Field(i)
					knobs[prefix+"."+name+"."+f.Name()] = &knob{
						pos: c.fset.Position(f.Pos()).String(), field: f, tagged: tagged}
				}
			}
		}
		if strings.HasPrefix(prefix, "cmd/") {
			for _, f := range c.files[path] {
				for name, pos := range declaredFlags(c, f) {
					knobs[prefix+" -"+name] = &knob{pos: pos}
				}
			}
		}
	}
	cfg := reflect.ValueOf(fleet.DefaultConfig())
	for i := 0; i < cfg.NumField(); i++ {
		knobs["internal/fleet.Config."+cfg.Type().Field(i).Name].def = cfg.Field(i)
	}
	return knobs, scenarioPaths(knobs)
}

// scenarioPaths walks the scenario schema the way the decoder does: a
// tagged field is a key, an untagged embedded struct adds its fields to
// the section, and pointers and slices decode onto their element. It sets
// each reached field's default: the calibrated value for a section that
// starts from fleet.DefaultConfig(), zero otherwise.
func scenarioPaths(knobs map[string]*knob) map[string]string {
	def := fleet.DefaultConfig()
	calibrated := map[reflect.Type]reflect.Value{
		reflect.TypeOf(def):                  reflect.ValueOf(def),
		reflect.TypeOf(def.ConfessionConfig): reflect.ValueOf(def.ConfessionConfig),
	}
	// An event's one action decodes onto the Event field named here.
	eventBodies := map[string]string{
		scenario.EvInjectDefect: "Inject", scenario.EvSetOperatingPoint: "Point",
		scenario.EvStartKVLoad: "KV", scenario.EvStartTaskRun: "TaskRun",
		scenario.EvInjectWALFault: "WALFault", scenario.EvInjectNetFault: "NetFault",
		scenario.EvDrainMachine: "machineRef", scenario.EvUndrainMachine: "machineRef",
		scenario.EvCordonMachine: "machineRef", scenario.EvReleaseMachine: "machineRef",
	}
	paths := map[string]string{}
	var walk func(t reflect.Type, path string)
	walk = func(t reflect.Type, path string) {
		for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
			t = t.Elem()
		}
		switch t {
		case reflect.TypeOf(scenario.Event{}):
			for action, field := range eventBodies {
				sf, _ := t.FieldByName(field)
				walk(sf.Type, path+"."+action)
			}
			return
		case reflect.TypeOf(scenario.Assertions{}):
			walk(reflect.TypeOf(scenario.MetricAssert{}), path+".metrics")
			walk(reflect.TypeOf(scenario.Range{}), path+".*") // any quantity
			return
		}
		if t.Kind() != reflect.Struct {
			return
		}
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			tag, tagged := sf.Tag.Lookup("scn")
			if !tagged {
				if sf.Anonymous {
					walk(sf.Type, path)
				}
				continue
			}
			key := strings.TrimPrefix(t.PkgPath(), modulePath+"/") + "." + t.Name() + "." + sf.Name
			if k := knobs[key]; k != nil {
				k.def = reflect.Zero(sf.Type)
				if v, ok := calibrated[t]; ok {
					k.def = v.Field(i)
				}
			}
			name, _, _ := strings.Cut(tag, ",")
			p := strings.TrimPrefix(path+"."+name, ".")
			paths[p] = key
			walk(sf.Type, p)
		}
	}
	walk(reflect.TypeOf(scenario.Scenario{}), "")
	return paths
}

// flagDefiner matches the package flag functions and FlagSet methods that
// define a flag.
var flagDefiner = regexp.MustCompile(`^(Bool|Duration|Float64|Func|Int|String|TextVar|Uint|Var)`)

// declaredFlags maps each flag f defines through package flag to its
// position: the name is the call's first constant string argument.
func declaredFlags(c *moduleChecker, f *ast.File) map[string]string {
	flags := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := c.info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" || !flagDefiner.MatchString(fn.Name()) {
			return true
		}
		for _, arg := range call.Args {
			if v := c.info.Types[arg].Value; v != nil && v.Kind() == constant.String {
				flags[constant.StringVal(v)] = c.fset.Position(call.Pos()).String()
				break
			}
		}
		return true
	})
	return flags
}

// scenarioSets marks each field that a scenarios/*.yaml file sets to a
// value other than its default.
func scenarioSets(knobs map[string]*knob, paths map[string]string) error {
	files, err := filepath.Glob("scenarios/*.yaml")
	if err != nil || len(files) == 0 {
		return fmt.Errorf("no scenario files: %v", err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		yamlValues(string(data), func(path, value string) {
			key, ok := paths[path]
			if quantity, isAssert := strings.CutPrefix(path, "assert."); !ok && isAssert {
				_, field, _ := strings.Cut(quantity, ".")
				key, ok = paths["assert.*."+field]
			}
			if k := knobs[key]; ok && k != nil && !isDefault(k.def, value) {
				k.set = true
			}
		})
	}
	return nil
}

// yamlValues calls fn with the dotted key path and the raw value of every
// key in a scenario file, block or flow style. A sequence item adds no
// segment to the path; a key that opens a block has an empty value.
func yamlValues(doc string, fn func(path, value string)) {
	type open struct {
		indent int
		path   string
	}
	var stack []open
	for _, line := range strings.Split(doc, "\n") {
		line = stripComment(line)
		body := strings.TrimLeft(line, " ")
		indent := len(line) - len(body)
		for strings.HasPrefix(body, "-") {
			item := strings.TrimLeft(body[1:], " ")
			indent += len(body) - len(item)
			body = item
		}
		key, value, ok := strings.Cut(body, ":")
		if !ok || strings.ContainsAny(key, `"'{[`) {
			continue
		}
		for len(stack) > 0 && stack[len(stack)-1].indent >= indent {
			stack = stack[:len(stack)-1]
		}
		path := strings.TrimSpace(key)
		if len(stack) > 0 {
			path = stack[len(stack)-1].path + "." + path
		}
		value = strings.TrimSpace(value)
		flowValues(path, value, fn)
		if value == "" {
			stack = append(stack, open{indent, path})
		}
	}
}

// flowValues reports value at path and, for a flow mapping or sequence,
// each of its entries below it.
func flowValues(path, value string, fn func(path, value string)) {
	fn(path, strings.Trim(value, `"'`))
	if len(value) < 2 || !strings.ContainsAny(value[:1], "{[") {
		return
	}
	depth, start := 0, 1
	for i := 1; i < len(value); i++ {
		switch value[i] {
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		}
		if (value[i] != ',' || depth != 0) && i != len(value)-1 {
			continue
		}
		entry := strings.TrimSpace(value[start:i])
		start = i + 1
		if k, v, ok := strings.Cut(entry, ":"); ok && value[0] == '{' {
			flowValues(path+"."+strings.TrimSpace(k), strings.TrimSpace(v), fn)
		} else if entry != "" {
			flowValues(path, entry, fn)
		}
	}
}

// stripComment drops a # comment that starts the line or follows a space
// outside quotes.
func stripComment(line string) string {
	var quote byte
	for i := 0; i < len(line); i++ {
		switch b := line[i]; {
		case quote != 0:
			if b == quote {
				quote = 0
			}
		case b == '"' || b == '\'':
			quote = b
		case b == '#' && (i == 0 || line[i-1] == ' '):
			return strings.TrimRight(line[:i], " ")
		}
	}
	return line
}

// isDefault reports whether text, a scalar's spelling, decodes to def. A
// section, and any value of a field whose default is nil, is never the
// default.
func isDefault(def reflect.Value, text string) bool {
	switch def.Kind() {
	case reflect.String:
		return text == def.String()
	case reflect.Bool:
		return text == strconv.FormatBool(def.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v, err := strconv.ParseInt(text, 0, 64)
		return err == nil && v == def.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v, err := strconv.ParseUint(text, 0, 64)
		return err == nil && v == def.Uint()
	case reflect.Float32, reflect.Float64:
		v, err := strconv.ParseFloat(text, 64)
		return err == nil && v == def.Float()
	}
	return false
}

// goSets marks each field that a non-test Go file outside the field's own
// package sets to a value other than its default: by assignment, to it or
// to a field below it, or as a composite-literal key.
func goSets(c *moduleChecker, knobs map[string]*knob) {
	byField := map[types.Object]*knob{}
	for _, k := range knobs {
		if k.field != nil {
			byField[k.field] = k
		}
	}
	for path, files := range c.files {
		// credit marks the field id names unless it is path's own, or
		// value, nil when unknown, is a constant equal to its default.
		credit := func(id *ast.Ident, value ast.Expr) {
			k := byField[c.info.Uses[id]]
			if k == nil || k.field.Pkg().Path() == path {
				return
			}
			if v := c.info.Types[value].Value; v == nil || !isDefault(k.def, constText(v)) {
				k.set = true
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						var value ast.Expr
						if len(n.Rhs) == len(n.Lhs) {
							value = n.Rhs[i]
						}
						for sel, ok := lhs.(*ast.SelectorExpr); ok; sel, ok = sel.X.(*ast.SelectorExpr) {
							credit(sel.Sel, value)
							value = nil
						}
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						credit(id, n.Value)
					}
				}
				return true
			})
		}
	}
}

// constText spells a constant the way a scenario file would.
func constText(v constant.Value) string {
	switch v.Kind() {
	case constant.String:
		return constant.StringVal(v)
	case constant.Int, constant.Float:
		f, _ := constant.Float64Val(constant.ToFloat(v))
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return v.ExactString()
}

// flagSets marks each flag that a test of its program, or a CI step that
// runs the program, passes.
func flagSets(knobs map[string]*knob) error {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		return err
	}
	for key, k := range knobs {
		prog, name, ok := strings.Cut(key, " -")
		if !ok {
			continue
		}
		var text []string
		for _, line := range strings.Split(string(ci), "\n") {
			if strings.Contains(line, filepath.Base(prog)) {
				text = append(text, line)
			}
		}
		tests, err := filepath.Glob(prog + "/*_test.go")
		if err != nil {
			return err
		}
		for _, name := range tests {
			data, err := os.ReadFile(name)
			if err != nil {
				return err
			}
			text = append(text, string(data))
		}
		passed := regexp.MustCompile(`(^|[\s"'\x60])-` + regexp.QuoteMeta(name) + `($|[\s"'\x60=])`)
		k.set = passed.MatchString(strings.Join(text, "\n"))
	}
	return nil
}
