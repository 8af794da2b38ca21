//go:build !unix

package main

import "time"

// cpuTimes is the process's user and system CPU time; this platform
// does not report it.
type cpuTimes struct{ user, sys time.Duration }

func readCPU() cpuTimes { return cpuTimes{} }
