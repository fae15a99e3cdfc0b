package main

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// The benchmark runs on a shared host whose speed drifts by up to 3×
// over minutes, while it holds within about 10% over a repetition.
// stacd's CPU time per decision follows the drift, so raw timings of
// the same code spread by 30–50% between runs. Each repetition is
// therefore bracketed by two calibrations: a fixed piece of work that
// mirrors the daemon's own mix (JSON codec, HMAC-SHA-256, small
// allocations) on every CPU. It is built from the standard library and
// this file only, so no change to the program can speed it up. Timing
// metrics are reported at the reference speed: scaled by
// refCalibration over the mean of the repetition's two calibrations.
const (
	// refCalibration is a calibration's time on the reference host in a
	// quiet period (Intel Xeon, 2 vCPUs, go1.24.0): its first quartile
	// over 1888 calibrations.
	refCalibration = 30 * time.Millisecond
	// calibrationRounds is the work of one calibration on each CPU.
	calibrationRounds = 40
)

// calRecord is a proof-sized record, as the daemon's wire carries them.
type calRecord struct {
	Object    string `json:"object"`
	Server    string `json:"server"`
	Resource  string `json:"resource"`
	Op        string `json:"op"`
	Seq       int    `json:"seq"`
	At        int64  `json:"at"`
	Signature []byte `json:"signature"`
}

// calibrate runs the reference work on every CPU at once, as the
// benchmark's processes use them, and returns its wall time.
func calibrate() time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calibrationWork()
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// calibrationWork signs 32 records, encodes and decodes them as JSON,
// and verifies every signature, calibrationRounds × 4 times.
func calibrationWork() {
	recs := make([]calRecord, 32)
	for i := range recs {
		recs[i] = calRecord{Object: "w1", Server: fmt.Sprintf("s%d", i%3+1),
			Resource: fmt.Sprintf("f%d", i%8+1), Op: "read", Seq: i, At: int64(i) * 1e9}
	}
	key := []byte(coalitionKey)
	sign := func(r calRecord) []byte {
		m := hmac.New(sha256.New, key)
		fmt.Fprintf(m, "%s|%s|%s|%s|%d|%d", r.Object, r.Server, r.Resource, r.Op, r.Seq, r.At)
		return m.Sum(nil)
	}
	for range calibrationRounds * 4 {
		for i := range recs {
			recs[i].Signature = sign(recs[i])
		}
		b, err := json.Marshal(recs)
		var back []calRecord
		if err == nil {
			err = json.Unmarshal(b, &back)
		}
		if err != nil {
			panic("calibration: " + err.Error())
		}
		for _, r := range back {
			if !hmac.Equal(sign(r), r.Signature) {
				panic("calibration: signature mismatch")
			}
		}
	}
}
