package main

import (
	"crypto/ed25519"
	"runtime"
	"sync"
	"time"
)

// The machine this benchmark runs on is a few cores of a shared host, and
// how fast those cores are changes by up to 1.5x from one minute to the
// next (see README.md, "Measured spread"). A run therefore measures the
// machine as well as the program: between slices of load it times a fixed
// reference kernel, and every time it reports is scaled to what it would
// have been had the machine run the kernel at referenceRate.

const (
	// referenceRate is the speed of the reference machine: ed25519
	// verifications of a 64-byte message per second and thread.
	referenceRate = 18000.0
	// referenceSlice is how long one reading of the kernel takes.
	referenceSlice = 400 * time.Millisecond
)

// machineSpeed times the reference kernel on as many threads as the load
// can use and returns the machine's speed as a multiple of the reference
// machine's. The kernel is ed25519 verification because that is what the
// replicas and clients spend nine tenths of their processor time on.
func machineSpeed() float64 {
	threads := runtime.GOMAXPROCS(0)
	key := seedKey(0, "reference", 0)
	pub := key.Public().(ed25519.PublicKey)
	msg := make([]byte, 64)
	sig := ed25519.Sign(key, msg)

	counts := make([]int, threads)
	start := time.Now()
	var wg sync.WaitGroup
	for t := range counts {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for time.Since(start) < referenceSlice {
				for i := 0; i < 16; i++ {
					if ed25519.Verify(pub, msg, sig) {
						counts[t]++
					}
				}
			}
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var total int
	for _, n := range counts {
		total += n
	}
	return float64(total) / elapsed / (referenceRate * float64(threads))
}
