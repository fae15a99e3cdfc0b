package sral_test

import (
	"math/rand"
	"runtime"
	"testing"

	"stac/internal/sral"
	"stac/internal/workload"
)

// Lexing a 256-construct program, the size every bigpolicy access
// declares, takes one allocation: the token slice is sized up front
// instead of regrown one append at a time.
func TestLexAllocatesOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		src := sral.String(workload.Program(r, workload.DefaultVocabulary(3, 8),
			workload.ProgramOptions{Size: 256, LoopFraction: 0.1, ParFraction: 0.2}))
		lex := func() {
			if _, err := sral.Lex(src); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(20, lex); allocs != 1 {
			t.Fatalf("seed %d: lexing %d bytes allocates %v times, want 1", seed, len(src), allocs)
		}
		// At most half a 32-byte token per source byte, plus the
		// allocator rounding a large object up to whole 8 KiB pages.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		lex()
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(16*len(src)+8192); got > bound {
			t.Fatalf("seed %d: lexing %d bytes allocates %d B, want at most %d", seed, len(src), got, bound)
		}
	}
}
