//go:build race

package serve

// raceEnabled reports whether the race detector is active. sync.Pool
// intentionally bypasses its cache under the race detector, so strict
// zero-allocation assertions only hold in normal builds.
const raceEnabled = true
