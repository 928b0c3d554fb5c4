package analysis

import (
	"go/types"
	"slices"
	"strings"
	"testing"
)

// TestDefaultConfigNamesResolve loads the module and requires every
// module-local name in the production inventory to name something that
// exists: each scoped package, each lockscope deny entry, guardorder
// guard and target, and wspool checkout. The analyzers match names as
// strings, so a renamed function would otherwise drop its coverage
// without any finding.
func TestDefaultConfigNamesResolve(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	c := defaultConfigs(l.Module)
	local := func(name string) bool { return strings.HasPrefix(name, l.Module+"/") }

	// declared maps a loaded package to the normalized names of its
	// functions and methods, and their bare names.
	declared := map[string]map[string]bool{}
	load := func(path string) map[string]bool {
		if names, ok := declared[path]; ok {
			return names
		}
		pkg, err := l.Load(path)
		if err != nil {
			t.Errorf("package %s: %v", path, err)
			return nil
		}
		names := map[string]bool{}
		add := func(fn *types.Func) { names[normalizeFuncName(fn)], names[fn.Name()] = true, true }
		scope := pkg.Types.Scope()
		for _, n := range scope.Names() {
			switch obj := scope.Lookup(n).(type) {
			case *types.Func:
				add(obj)
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok {
					for i := range named.NumMethods() {
						add(named.Method(i))
					}
				}
			}
		}
		declared[path] = names
		return names
	}
	// resolve checks a module-qualified function or method name against
	// the package named by everything before the first dot after the
	// last slash.
	resolve := func(what, name string) {
		if !local(name) {
			return
		}
		slash := strings.LastIndex(name, "/")
		dot := strings.Index(name[slash:], ".")
		if dot < 0 {
			t.Errorf("%s %q names no function", what, name)
			return
		}
		if names := load(name[:slash+dot]); names != nil && !names[name] {
			t.Errorf("%s %q is not a declared function or method", what, name)
		}
	}

	for _, p := range slices.Concat(c.lockScope.Packages, c.guardOrder.Packages, c.wsPool.Packages, pinnedDefault(l.Module)) {
		load(p)
	}
	for _, d := range c.lockScope.Deny {
		if pkg, ok := strings.CutSuffix(d.Func, ".*"); ok {
			if local(pkg) {
				load(pkg)
			}
			continue
		}
		resolve("lockscope deny entry", d.Func)
	}
	for _, g := range c.guardOrder.Guards {
		found := false
		for _, p := range c.guardOrder.Packages {
			found = found || load(p)[g]
		}
		if !found {
			t.Errorf("guardorder guard %q is declared in none of %v", g, c.guardOrder.Packages)
		}
	}
	for _, target := range c.guardOrder.Targets {
		resolve("guardorder target", target)
	}
	for _, p := range c.wsPool.Pairs {
		resolve("wspool checkout", p.Checkout)
	}
}
