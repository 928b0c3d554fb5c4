package analysis

// Default returns the production analyzer suite for the given module
// path ("repro"), each configured with the repo's invariant inventory.
// This is the single place the invariants live; the fixture tests
// construct analyzers with narrow test configs instead.
func Default(module string) []*Analyzer {
	c := defaultConfigs(module)
	return []*Analyzer{
		NanSafe(),
		LockScope(c.lockScope),
		MapDeterminism(pinnedDefault(module)),
		GuardOrder(c.guardOrder),
		WSPool(c.wsPool),
	}
}

// configs is the invariant inventory Default configures its analyzers
// with; TestDefaultConfigNamesResolve checks every module-local name in
// it against the source, so a rename cannot silently drop coverage.
type configs struct {
	lockScope  LockScopeConfig
	guardOrder GuardOrderConfig
	wsPool     WSPoolConfig
}

func defaultConfigs(module string) configs {
	mod := func(s string) string { return module + "/" + s }
	lockedPkgs := []string{
		mod("internal/serve"),
		mod("internal/kernel"),
		mod("internal/cluster"),
	}
	return configs{
		lockScope: LockScopeConfig{
			Packages:     lockedPkgs,
			LockedSuffix: true,
			Deny: []DenyEntry{
				// The seed entry — the PR 8 fix itself. History() copies
				// the whole O(rows) query log; Summary holding the dataset
				// mutex across it let write load starve /healthz probes.
				{Func: mod("internal/kernel") + ".Kernel.History", Why: "O(rows) history copy; use HistoryLen (O(1)) or copy outside the lock"},
				// The O(nnz) half of a commit (list, canonicalise, encode)
				// needs nothing from the dataset: prepareCommit, before d.mu.
				{Func: mod("internal/mat") + ".Triplets", Why: "O(nnz) work belongs before d.mu (prepareCommit)"},
				{Func: mod("internal/mat") + ".ToSparse", Why: "O(nnz) work belongs before d.mu (prepareCommit)"},
				{Func: mod("internal/serve") + ".canonicalMatrix", Why: "O(nnz) work belongs before d.mu (prepareCommit)"},
				{Func: mod("internal/serve") + ".prepareCommit", Why: "O(nnz) work belongs before d.mu"},
				{Func: mod("internal/serve") + ".appendBlocksJSON", Why: "O(nnz) work belongs before d.mu (prepareCommit)"},
				{Func: mod("internal/serve") + ".wireBlock.appendJSON", Why: "O(nnz) work belongs before d.mu (prepareCommit)"},
				// I/O, fsync and network: a blocked syscall under a hot
				// mutex stalls every reader and writer behind it.
				{Func: mod("internal/wal") + ".Log.Append", Why: "WAL append does file I/O and fsync"},
				{Func: mod("internal/wal") + ".Log.AppendFramed", Why: "WAL append does file I/O and fsync"},
				{Func: mod("internal/wal") + ".Replace", Why: "compaction rewrites the whole log file"},
				{Func: mod("internal/wal") + ".Open", Why: "log open scans the file from disk"},
				{Func: mod("internal/wal") + ".Log.Close", Why: "close syncs (fsync) before releasing the file"},
				{Func: mod("internal/wal") + ".WriteFileAtomic", Why: "atomic file rewrite does full-file I/O plus fsync"},
				{Func: "os.WriteFile", Why: "file I/O"},
				{Func: "os.ReadFile", Why: "file I/O"},
				{Func: "os.Create", Why: "file I/O"},
				{Func: "os.Open", Why: "file I/O"},
				{Func: "os.OpenFile", Why: "file I/O"},
				{Func: "os.Remove", Why: "file I/O"},
				{Func: "os.Rename", Why: "file I/O"},
				{Func: "os.MkdirAll", Why: "file I/O"},
				{Func: "os.File.Sync", Why: "fsync"},
				{Func: "os.File.Write", Why: "file I/O"},
				{Func: "net/http.*", Why: "network round-trip"},
				// Blocking and logging: log serializes on its own mutex
				// and writes to stderr; Sleep is a lock-hold by design.
				{Func: "time.Sleep", Why: "blocking sleep"},
				{Func: "log.Printf", Why: "logging serializes on the log package mutex and writes stderr"},
				{Func: "log.Print", Why: "logging serializes on the log package mutex and writes stderr"},
				{Func: "log.Println", Why: "logging serializes on the log package mutex and writes stderr"},
				{Func: "fmt.Printf", Why: "stdout I/O"},
				{Func: "fmt.Println", Why: "stdout I/O"},
				{Func: "fmt.Print", Why: "stdout I/O"},
			},
		},
		guardOrder: GuardOrderConfig{
			Packages: []string{mod("internal/serve")},
			Guards:   []string{"checkWritable"},
			Targets:  []string{mod("internal/kernel") + ".Kernel.NewSession"},
		},
		wsPool: WSPoolConfig{
			// Scoped to the packages that actually use the pools; an
			// empty scope would walk everything for no additional
			// coverage.
			Packages: []string{
				mod("internal/mat"),
				mod("internal/core/inference"),
			},
			Pairs: []PoolPair{
				{Checkout: mod("internal/mat") + ".getScratch", ReleaseMethod: "put"},
				{Checkout: "sync.Pool.Get", ReleaseFunc: "sync.Pool.Put"},
			},
		},
	}
}
