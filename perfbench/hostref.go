package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The speed of a shared VM moves with the load of other guests: on a 2-vCPU
// VM the CPU time of one and the same pass halved from one quarter hour to
// the next, and within a pass it drifts by 10% and more from one second
// to the next. So a pass takes a short reference sample, a fixed loop that
// runs no code of this repository, before its first phase and after every
// phase (each cell's set-up and run), and reports each phase's CPU time
// scaled by refNominal / (the mean of the two samples around it). A slower
// host slows both and reads the same; a slower program slows only the phase
// and reads slower. Samples at both ends of a whole pass tracked the host
// only half as well (README.md has the figures).

// refNominal is the reference sample's CPU time on the host the scaled
// metrics are expressed in: about its time on a quiet 2-vCPU Xeon VM.
const refNominal = 4500 * time.Microsecond

// The loop's table fits a core's private caches, so the loop measures core
// speed. A loop over 8 MiB also slowed by 8% under memory traffic from the
// other vCPU, which left the simulator's CPU time unchanged.
const (
	refWords = 1 << 15   // 256 KiB
	refSteps = 2_000_000 // random read-modify-writes per sample
)

var refTable = make([]uint64, refWords)

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
// The kernel leaves time stolen by the hypervisor out of it.
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime: %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// refSample times one run of the reference loop on a locked thread. The
// table is read once first, untimed, so that a sample taken right after
// simulator work does not time the table's cache misses.
func refSample() (time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var acc uint64
	for _, v := range refTable {
		acc += v
	}
	t0, err := threadCPU()
	if err != nil {
		return 0, err
	}
	x := uint64(88172645463325252)
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (refWords - 1)
		acc += refTable[j]
		refTable[j] = acc ^ x
	}
	t1, err := threadCPU()
	if err != nil {
		return 0, err
	}
	return t1 - t0, nil
}

// scaleCPU returns the phases' CPU times (seconds) scaled to refNominal:
// phase i by the mean of the reference samples ref[i] and ref[i+1] taken
// around it, so ref holds one sample more than phases.
func scaleCPU(phases, ref []float64) []float64 {
	out := make([]float64, len(phases))
	for i, p := range phases {
		out[i] = p * 2 * refNominal.Seconds() / (ref[i] + ref[i+1])
	}
	return out
}
