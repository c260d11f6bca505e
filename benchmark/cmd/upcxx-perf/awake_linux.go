package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// Keeping the CPUs awake.
//
// On a virtual machine, waking a halted vCPU costs anything from 5 to
// over 100 µs depending on a hypervisor state the guest neither sees nor
// controls, and that state flips every few minutes. Every workload here
// parks and wakes threads thousands of times a second, so with halting
// vCPUs the same code measured 8.2 or 10.5 µs per small put and 52 k or
// 66 k ops/s (onesided_small), 2.1 k or 2.9 k ops/s (coll_hier),
// depending on the minute. While a workload runs, the benchmark
// therefore keeps one busy loop at SCHED_IDLE priority on each CPU it
// may run on: the loop runs only when the CPU would otherwise halt and
// gives way the moment any other thread is runnable. What a park and a
// wake cost inside the guest (futex, scheduler, the Go runtime) is still
// measured; what the hypervisor adds on top is not. The loops are
// separate processes, so their CPU time is not in cpu_us_per_op.
// README.md ("Steadiness") has the measurements.

const (
	schedIdle = 5 // SCHED_IDLE in <linux/sched.h>
	// spinLifetime ends a busy loop whose parent never stopped it.
	spinLifetime = runDeadline + 10*time.Second
)

// cpuMask is a kernel CPU affinity mask of up to 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

// affinity reads (get) or sets the calling thread's CPU affinity.
func affinity(trap uintptr, m *cpuMask) error {
	if _, _, e := syscall.RawSyscall(trap, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return e
	}
	return nil
}

var spinSink uint64

// spinMain is the body of a -spin child: pin to the CPU, drop to
// SCHED_IDLE, report readiness, and spin until the parent closes stdin
// (or dies, which closes it too) or spinLifetime passes.
func spinMain(cpu int) int {
	runtime.LockOSThread()
	var mask cpuMask
	mask[cpu/64] = 1 << (cpu % 64)
	if err := affinity(syscall.SYS_SCHED_SETAFFINITY, &mask); err != nil {
		fmt.Fprintln(os.Stderr, "upcxx-perf: spin: sched_setaffinity:", err)
		return 3
	}
	var param struct{ priority int32 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		// Spinning at normal priority would take the CPU from the workload.
		fmt.Fprintln(os.Stderr, "upcxx-perf: spin: sched_setscheduler(SCHED_IDLE):", e)
		return 3
	}
	fmt.Println("ready")
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	for end := time.Now().Add(spinLifetime); time.Now().Before(end); {
		for i := 0; i < 1<<20; i++ {
			spinSink++
		}
	}
	return 0
}

// keepAwake starts one -spin child on each CPU this process may run on
// (its affinity mask: run under taskset to confine both to fewer CPUs)
// and returns once all are spinning. stop ends them and waits for each.
// If a child cannot get SCHED_IDLE the run goes on without, and says so.
func keepAwake() (stop func()) {
	var mask cpuMask
	self, err := os.Executable()
	if err == nil {
		err = affinity(syscall.SYS_SCHED_GETAFFINITY, &mask)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "upcxx-perf: CPUs not kept awake:", err)
		return func() {}
	}
	type spinner struct {
		cmd   *exec.Cmd
		stdin io.Closer
	}
	var running []spinner
	stop = func() {
		for _, s := range running {
			s.stdin.Close()
			s.cmd.Process.Kill()
			s.cmd.Wait()
		}
	}
	for cpu := 0; cpu < 64*len(mask); cpu++ {
		if !mask.has(cpu) {
			continue
		}
		cmd := exec.Command(self, "-spin", strconv.Itoa(cpu))
		cmd.Stderr = os.Stderr
		stdin, err1 := cmd.StdinPipe()
		stdout, err2 := cmd.StdoutPipe()
		if err1 != nil || err2 != nil || cmd.Start() != nil {
			fmt.Fprintln(os.Stderr, "upcxx-perf: CPUs not kept awake: cannot start a spin child")
			stop()
			return func() {}
		}
		running = append(running, spinner{cmd, stdin})
		if line, _ := bufio.NewReader(stdout).ReadString('\n'); line != "ready\n" {
			fmt.Fprintf(os.Stderr, "upcxx-perf: CPUs not kept awake: spin child on CPU %d did not start\n", cpu)
			stop()
			return func() {}
		}
	}
	return stop
}
