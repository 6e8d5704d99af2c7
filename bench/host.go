package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// hostFingerprint names the machine a result was taken on, so that two
// results are compared only when they share a host. dataDir is where the
// cluster's files go: fsync=sync must reach a device there, not tmpfs.
func hostFingerprint(dataDir string, cpu int) map[string]string {
	h := map[string]string{
		"pinned_cpu": strconv.Itoa(cpu),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"kernel":     readTrim("/proc/sys/kernel/osrelease"),
	}
	h["data_fs"], h["data_dev"] = mountOf(dataDir)
	return h
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// mountOf returns the filesystem type and device of the mount that
// holds dir: the longest mount point in /proc/self/mountinfo that
// prefixes it.
func mountOf(dir string) (fstype, dev string) {
	fstype, dev = "unknown", "unknown"
	abs, err := filepath.Abs(dir)
	if err != nil {
		return
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return
	}
	defer f.Close()
	best := -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// "36 35 98:0 /mnt1 /mnt2 rw,noatime master:1 - ext3 /dev/root rw"
		left, right, ok := strings.Cut(sc.Text(), " - ")
		lf, rf := strings.Fields(left), strings.Fields(right)
		if !ok || len(lf) < 5 || len(rf) < 2 {
			continue
		}
		mp := lf[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fstype, dev = len(mp), rf[0], rf[1]
		}
	}
	return
}

// pinToOneCPU restricts every thread of the process, and so every thread
// it starts later, to the highest-numbered CPU it may run on (CPU 0
// takes most interrupts), and returns that CPU's number.
func pinToOneCPU() (int, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var mask [16]uint64 // 1024 CPUs
	size := uintptr(len(mask) * 8)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); e != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for i := len(mask)*64 - 1; i >= 0; i-- {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
			break
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity: empty CPU set")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	pin := func(tid int) error {
		// ESRCH: the thread has exited since it was listed.
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, uintptr(unsafe.Pointer(&mask))); e != 0 && e != syscall.ESRCH {
			return fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
		}
		return nil
	}
	if err := pin(0); err != nil { // this thread
		return 0, err
	}
	// Twice: a thread started meanwhile by one not yet pinned is caught
	// by the second pass.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := pin(tid); err != nil {
				return 0, err
			}
		}
	}
	return cpu, nil
}

// checkFreeSpace refuses to run with less than 1 GiB free under dir.
func checkFreeSpace(dir string) error {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return fmt.Errorf("statfs %s: %w", dir, err)
	}
	if free := st.Bavail * uint64(st.Bsize); free < 1<<30 {
		return fmt.Errorf("%s has %d MiB free; the benchmark needs 1 GiB", dir, free>>20)
	}
	return nil
}
