//go:build race

package core

// raceDetectorOn reports whether this test binary was built with
// -race. Allocation counts are not compared under the race detector:
// it makes sync.Pool drop a share of the buffers put back, so a
// decision that reuses a pooled buffer on a plain build sometimes
// allocates a fresh one there.
const raceDetectorOn = true
