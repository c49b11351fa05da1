//go:build race

package kv

// raceEnabled reports a -race build. Allocation budgets do not hold in
// one: among other things, sync.Pool drops items at random.
const raceEnabled = true
