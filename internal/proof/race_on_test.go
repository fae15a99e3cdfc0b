//go:build race

package proof

// raceDetectorOn reports whether this test binary was built with
// -race. Allocation counts are not compared under the race detector:
// it makes sync.Pool drop a share of the items put back, so a
// verification that reuses a pooled MAC on a plain build sometimes
// keys a fresh one there.
const raceDetectorOn = true
