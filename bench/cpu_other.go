//go:build !unix

package main

import "time"

// processCPU is unavailable without getrusage; the benchmark's
// cpu_us_per_record reads 0 there, and the build stays portable.
func processCPU() time.Duration { return 0 }
