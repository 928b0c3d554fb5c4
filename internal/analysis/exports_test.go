package analysis

import (
	"go/types"
	"sort"
	"strings"
	"testing"
)

// exportKeep lists the exported functions and methods of internal/
// packages that no non-test file calls but that stay, each with the
// reason it stays. Names are "<package path under internal/>.<Func>" or
// "<package path under internal/>.<Type>.<Method>".
var exportKeep = map[string]string{
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
	"wal.NewFaultFS":                     "test tooling: fault injection for the crash tests",
	// Reference or interface.
	"core/partition.DawaL1PartitionExact": "reference: the exact L1 bucketing the DAWA test compares against",
	"serve.NotPrimaryError.Unwrap":        "interface: errors.Is/As unwrap a 421 to ErrNotPrimary",
	"vec.Norm2":                           "reference: the solvers' colNorm2 replicates its arithmetic, and solver tests measure residuals with it",
}

// interfaceMethodsOutside names the methods of standard interfaces that
// module types satisfy without the module naming the interface.
var interfaceMethodsOutside = []string{"Error", "Set", "String", "ServeHTTP", "MarshalJSON"}

// TestExportsHaveCallers fails for every exported function or method of
// an internal/ package that no non-test file of the module, cmd/,
// examples/ or bench/ uses, unless exportKeep gives it a reason. A
// method is exempt when an interface the module declares or uses has a
// method of that name: calls through the interface do not name the
// concrete method.
func TestExportsHaveCallers(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.LoadTree(".")
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}

	used := make(map[types.Object]bool)
	ifaceMethods := make(map[string]bool)
	for _, name := range interfaceMethodsOutside {
		ifaceMethods[name] = true
	}
	seen := make(map[types.Type]bool)
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
			if obj != nil {
				collectInterfaceMethods(obj.Type(), ifaceMethods, seen)
			}
		}
		for _, obj := range pkg.Info.Defs {
			if obj != nil {
				collectInterfaceMethods(obj.Type(), ifaceMethods, seen)
			}
		}
		for _, tv := range pkg.Info.Types {
			collectInterfaceMethods(tv.Type, ifaceMethods, seen)
		}
	}

	prefix := l.Module + "/internal/"
	var missing []string
	kept := make(map[string]bool)
	check := func(name string, fn *types.Func) {
		if used[fn] {
			return
		}
		if _, ok := exportKeep[name]; ok {
			kept[name] = true
			return
		}
		missing = append(missing, name+" ("+pkgs[0].Fset.Position(fn.Pos()).String()+")")
	}
	for _, pkg := range pkgs {
		rel, ok := strings.CutPrefix(pkg.Path, prefix)
		if !ok {
			continue
		}
		scope := pkg.Types.Scope()
		for _, objName := range scope.Names() {
			switch obj := scope.Lookup(objName).(type) {
			case *types.Func:
				if obj.Exported() {
					check(rel+"."+obj.Name(), obj)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !ifaceMethods[m.Name()] {
						check(rel+"."+obj.Name()+"."+m.Name(), m)
					}
				}
			}
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("exported with no non-test caller: %s", name)
	}
	if len(missing) > 0 {
		t.Logf("%d exported names without a caller; delete them or give each a reason in exportKeep", len(missing))
	}
	for name := range exportKeep {
		if !kept[name] {
			t.Errorf("exportKeep lists %s, which is gone or now has a caller", name)
		}
	}
}

// collectInterfaceMethods adds the method names of every interface
// reachable from t (through signatures, composites and named types'
// underlying types) to names.
func collectInterfaceMethods(t types.Type, names map[string]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		collectInterfaceMethods(t.Underlying(), names, seen)
	case *types.Alias:
		collectInterfaceMethods(types.Unalias(t), names, seen)
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			names[t.Method(i).Name()] = true
		}
	case *types.Pointer:
		collectInterfaceMethods(t.Elem(), names, seen)
	case *types.Slice:
		collectInterfaceMethods(t.Elem(), names, seen)
	case *types.Array:
		collectInterfaceMethods(t.Elem(), names, seen)
	case *types.Map:
		collectInterfaceMethods(t.Key(), names, seen)
		collectInterfaceMethods(t.Elem(), names, seen)
	case *types.Chan:
		collectInterfaceMethods(t.Elem(), names, seen)
	case *types.Signature:
		collectInterfaceMethods(t.Params(), names, seen)
		collectInterfaceMethods(t.Results(), names, seen)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			collectInterfaceMethods(t.At(i).Type(), names, seen)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			collectInterfaceMethods(t.Field(i).Type(), names, seen)
		}
	}
}
