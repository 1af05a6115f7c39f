package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// machine is the record every output carries, so two result files can
// be told apart as "different code" or "different box" before their
// numbers are compared.
type machine struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Governor   string `json:"governor"`
	WorkdirFS  string `json:"workdir_fs"`
	Seed       int64  `json:"seed"`
	Size       string `json:"size"`
}

func readMachine(workdir string, seed int64, size string) machine {
	m := machine{
		Commit:     "unknown", // the driver's checkout is not a git repository
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Governor:   "unreadable",
		WorkdirFS:  fsType(workdir),
		Seed:       seed,
		Size:       size,
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			m.Commit += "-dirty"
		}
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if blob, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"); err == nil {
		m.Governor = strings.TrimSpace(string(blob))
	}
	return m
}

// calibSink keeps the calibration loop's result observable so the
// compiler cannot remove the loop.
var calibSink uint64

// calibrate times a fixed FNV-1a spin that touches no memory and calls
// nothing: its duration moves with the machine (frequency, steal, a
// noisy neighbour) and never with the program under test, so its spread
// across a run says how far that run's timings can be trusted.
func calibrate() time.Duration {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	t0 := time.Now()
	for i := uint64(0); i < 4_000_000; i++ {
		h = (h ^ (i & 0xff)) * prime
	}
	d := time.Since(t0)
	calibSink += h
	return d
}
