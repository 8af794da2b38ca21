//go:build unix

package main

import (
	"syscall"
	"time"
)

// cpuTimes is the process's user and system CPU time.
type cpuTimes struct{ user, sys time.Duration }

func readCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
	}
}
