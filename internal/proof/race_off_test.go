//go:build !race

package proof

// raceDetectorOn reports whether this test binary was built with
// -race. See race_on_test.go for why allocation counts consult it.
const raceDetectorOn = false
