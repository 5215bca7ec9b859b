package main

import (
	"os"
	"runtime"
	"strings"
)

// host is the fingerprint every report carries, so two reports are only
// compared knowing whether they came from the same kind of machine.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// StoreTmpfs reports whether the directory the trace-store workloads
	// write to is memory-backed: store numbers from tmpfs say nothing
	// about a disk.
	StoreTmpfs bool `json:"store_tmpfs"`
}

func fingerprint(storeDir string) host {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel,
		StoreTmpfs: isTmpfs(storeDir),
	}
}
