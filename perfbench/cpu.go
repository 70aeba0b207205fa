package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU is the CPU time this process has used, user plus system.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// procCPU is the CPU time process pid has used, user plus system, from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	var ticks int64
	for _, i := range []int{11, 12} { // utime, stime
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// hostCPU is the all-CPU line of /proc/stat, in jiffies: time the CPUs
// spent working, idle (waiting on I/O included) and stolen by the
// hypervisor for other tenants of the host.
type hostCPU struct {
	busy, idle, steal int64
}

// readHostCPU reads /proc/stat, or returns zeros where it is unavailable.
func readHostCPU() hostCPU {
	var h hostCPU
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return h
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		switch i {
		case 3, 4:
			h.idle += n
		case 7:
			h.steal = n
		default:
			h.busy += n
		}
	}
	return h
}

// since is the CPU time spent between h0 and h.
func (h hostCPU) since(h0 hostCPU) hostCPU {
	return hostCPU{busy: h.busy - h0.busy, idle: h.idle - h0.idle, steal: h.steal - h0.steal}
}

// stealFrac is the share of all CPU time the hypervisor stole: the figure
// to read a noisy run against.
func (h hostCPU) stealFrac() float64 {
	if total := h.busy + h.idle + h.steal; total > 0 {
		return float64(h.steal) / float64(total)
	}
	return 0
}

// util is the share of the CPU time the host did not steal that was spent
// working. At saturation a program that keeps every core busy reads
// about 1; one that leaves cores idle, waiting on a lock or on too few
// workers, reads less.
func (h hostCPU) util() float64 {
	if avail := h.busy + h.idle; avail > 0 {
		return float64(h.busy) / float64(avail)
	}
	return 0
}
