package main

import (
	"runtime"
	"syscall"
	"time"
)

// procSample is one reading of the process-wide costs the per-layer
// ledger reports: CPU time, heap allocations and GC pauses.
type procSample struct {
	at      time.Time
	cpuS    float64
	mallocs uint64
	pauseNs uint64
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// sampleProc stops the world briefly (ReadMemStats); call it only at
// phase boundaries, never inside a measured window.
func sampleProc() procSample {
	ru := rusage()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		at:      time.Now(),
		cpuS:    tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		mallocs: ms.Mallocs,
		pauseNs: ms.PauseTotalNs,
	}
}

// peakRSSMB is the process's resident-set high-water mark. On Linux
// ru_maxrss is in KiB and is the VmHWM of /proc/self/status.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }
