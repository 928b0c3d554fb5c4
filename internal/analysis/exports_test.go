package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// reachKeep lists the functions and methods of internal/ packages that
// no program reaches but that stay, each with the reason it stays.
// Names are "<package path under internal/>.<Func>" or
// "<package path under internal/>.<Type>.<Method>". The entries are
// roots of the reachability pass, so what they call is reached too.
var reachKeep = map[string]string{
	// Paper objects: each implements an operator, matrix or section of
	// the paper, or is the paper's table-level API.
	"core/inference.NoiseAwareThreshold":  "paper Fig. 1 HR: thresholding at the measured noise level",
	"core/partition.Marginal":             "paper Fig. 1 PM Marginal(attr)",
	"core/plans.AdvisedGraph":             "paper §12 plan-level strategy chooser, as an operator graph",
	"core/plans.CDFGraph":                 "paper Algorithm 1 (§2.1), as an operator graph",
	"core/plans.WithWorkloadReduction":    "paper §8 workload-based domain reduction (Theorem 8.4)",
	"kernel.Handle.GroupBy":               "paper §5.1 table transformation GroupBy",
	"kernel.Handle.MapToRoot":             "paper §5.5 inference under vector transformations",
	"kernel.Handle.SplitTableByPartition": "paper §5.1 table-level TP operator",
	"kernel.Handle.Transform":             "paper §5.1 linear vector transform",
	"mat.Row":                             "paper §7.3 row indexing",
	"mat.Suffix":                          "paper §7.4 Suffix matrix (Table 2 core matrices)",
	// Data path: the only way real data enters.
	"dataset.Bucketize":   "data path: dataset/csv.go",
	"dataset.Categorical": "data path: dataset/csv.go",
	"dataset.IntColumn":   "data path: dataset/csv.go",
	"dataset.ReadCSV":     "data path: dataset/csv.go",
	"dataset.WriteCSV":    "data path: dataset/csv.go, the inverse the codecs' Decode serves",
	// Test tooling: tests use it to drive or inspect other code.
	"cluster.Manager.Cursor":             "test tooling: a follower's stream cursor, read by the lag test",
	"core/inference.Consolidated.Groups": "test tooling: the fold's group count, read by serve's refresh tests",
	"core/plans.PlanNames":               "test tooling: serve and integration tests iterate the registry by name",
	"kernel.Handle.ID":                   "test tooling: kernel introspection the accounting tests read",
	"kernel.Handle.Stability":            "test tooling: the §4.4 stability tracker the accounting tests read",
	"kernel.Kernel.History":              "test tooling: the query history the accounting tests read",
	"kernel.Kernel.Nodes":                "test tooling: the per-node budget trackers the accounting tests read",
	"mat.DenseFromRows":                  "test tooling: builds small matrices in tests",
	"mat.Equal":                          "test tooling: compares matrices in tests",
	"mat.SetParallelism":                 "test tooling: pins the engine's width in tests and benchmarks",
	"noise.LaplaceVec":                   "test tooling: noisy right-hand sides for solver tests",
	"wal.FaultFS.CrashAfterBytes":        "test tooling: fault injection for the crash tests",
	"wal.FaultFS.Crashed":                "test tooling: fault injection for the crash tests",
	"wal.FaultFS.FailSync":               "test tooling: fault injection for the crash tests",
	"wal.FaultFS.FailWrites":             "test tooling: fault injection for the crash tests",
	"wal.FaultFS.ShortWriteOnce":         "test tooling: fault injection for the crash tests",
	"wal.FaultFS.Syncs":                  "test tooling: fault injection for the crash tests",
	"wal.NewFaultFS":                     "test tooling: fault injection for the crash tests",
	// Reference or interface.
	"core/partition.DawaL1PartitionExact": "reference: the exact L1 bucketing the DAWA test compares against",
	"vec.Norm2":                           "reference: the solvers' colNorm2 replicates its arithmetic, and solver tests measure residuals with it",
}

// rootMethods names the methods of standard interfaces that the
// standard library calls on module types: fmt, errors, encoding/json,
// net/http, flag, and go/types (Loader is a types.Importer).
var rootMethods = []string{"Error", "String", "MarshalJSON", "ServeHTTP", "Unwrap", "Set", "Import"}

// TestExportsHaveCallers fails for every function or method of an
// internal/ package, exported or not, that no program reaches, unless
// reachKeep gives it a reason. Reachability is a class-hierarchy pass
// over the non-test files of the module, cmd/, examples/ and bench/:
// it starts from every main and init function, every function a
// package-level declaration names (registry maps, for example), the
// reachKeep entries and the rootMethods, and follows every function a
// reached body names. A call through an interface method reaches every
// module method of that name whose receiver type implements the
// interface.
func TestExportsHaveCallers(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.LoadTree(".")
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}
	r := newReach(pkgs)

	prefix := l.Module + "/internal/"
	roots := make(map[string]bool)
	for _, name := range rootMethods {
		roots[name] = true
	}
	// checked maps "<package>.<Func>" or "<package>.<Type>.<Method>" to
	// every function of an internal/ package.
	checked := make(map[string]*types.Func)
	for _, pkg := range pkgs {
		rel, internal := strings.CutPrefix(pkg.Path, prefix)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					r.walk(pkg.Info, d)
				case *ast.FuncDecl:
					fn := pkg.Info.Defs[d.Name].(*types.Func)
					name := fn.Name()
					root := name == "init" || name == "main" && pkg.Types.Name() == "main"
					if d.Recv != nil {
						root = roots[name]
					}
					if root {
						r.add(fn)
					}
					if !internal || name == "_" {
						continue
					}
					if d.Recv != nil {
						name = recvName(fn) + "." + name
					}
					checked[rel+"."+name] = fn
				}
			}
		}
	}
	r.drain()
	for name := range reachKeep {
		fn, ok := checked[name]
		switch {
		case !ok:
			t.Errorf("reachKeep lists %s, which is gone", name)
		case r.reached[fn]:
			t.Errorf("reachKeep lists %s, which a program now reaches", name)
		default:
			r.add(fn)
		}
	}
	r.drain()

	var missing []string
	for name, fn := range checked {
		if !r.reached[fn] {
			missing = append(missing, name+" ("+pkgs[0].Fset.Position(fn.Pos()).String()+")")
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("no program reaches %s", name)
	}
	if len(missing) > 0 {
		t.Logf("%d of %d functions in internal/ are unreached; delete them or give each a reason in reachKeep", len(missing), len(checked))
	}
}

// recvName returns the name of a method's receiver type.
func recvName(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// reach is the worklist of the class-hierarchy pass.
type reach struct {
	decls   map[*types.Func]*ast.FuncDecl
	infos   map[*types.Func]*types.Info
	named   []*types.Named // the module's non-interface named types
	reached map[*types.Func]bool
	ifaces  map[*types.Func]bool // interface methods already resolved
	queue   []*types.Func
}

func newReach(pkgs []*Package) *reach {
	r := &reach{
		decls:   make(map[*types.Func]*ast.FuncDecl),
		infos:   make(map[*types.Func]*types.Info),
		reached: make(map[*types.Func]bool),
		ifaces:  make(map[*types.Func]bool),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok {
					fn := pkg.Info.Defs[d.Name].(*types.Func)
					r.decls[fn] = d
					r.infos[fn] = pkg.Info
				}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
				r.named = append(r.named, n)
			}
		}
	}
	return r
}

// add marks fn reached and queues its body.
func (r *reach) add(fn *types.Func) {
	fn = fn.Origin()
	if r.reached[fn] {
		return
	}
	r.reached[fn] = true
	r.queue = append(r.queue, fn)
}

// drain walks the body of every queued function until none is left.
func (r *reach) drain() {
	for len(r.queue) > 0 {
		fn := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		if d := r.decls[fn]; d != nil {
			r.walk(r.infos[fn], d)
		}
	}
}

// walk reaches every function that node names. A method named through
// an interface reaches its implementations instead.
func (r *reach) walk(info *types.Info, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil || !types.IsInterface(recv.Type()) {
			r.add(fn)
			return true
		}
		if r.ifaces[fn] {
			return true
		}
		r.ifaces[fn] = true
		iface := recv.Type().Underlying().(*types.Interface)
		for _, named := range r.named {
			for _, t := range []types.Type{named, types.NewPointer(named)} {
				if !types.Implements(t, iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(t, true, named.Obj().Pkg(), fn.Name())
				if m, ok := obj.(*types.Func); ok {
					r.add(m)
				}
				break
			}
		}
		return true
	})
}
