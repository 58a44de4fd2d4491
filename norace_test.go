//go:build !race

package sigstream

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
