//go:build race

package sigstream

// raceEnabled reports a -race build, where sync.Pool drops a quarter of
// the items put back, so pooled scratch is allocated again.
const raceEnabled = true
