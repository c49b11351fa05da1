//go:build !race

package kv

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
