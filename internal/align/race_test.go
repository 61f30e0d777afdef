//go:build race

package align

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of recycled buffers on purpose.
const raceEnabled = true
