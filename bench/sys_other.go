//go:build !linux

package main

// The benchmark is gated on Linux; elsewhere it still builds, with the
// rusage- and statfs-backed readings absent.

func cpuSeconds() float64      { return 0 }
func peakRSSMB() float64       { return 0 }
func fsType(dir string) string { return "unknown" }
