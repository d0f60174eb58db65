package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dangsan/internal/proc"
	"dangsan/internal/service/transport"
	"dangsan/internal/tcmalloc"
	"dangsan/internal/vmem"
)

// median returns the middle value of xs (mean of the middle two for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank
// method on a sorted copy; 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// usage is one getrusage reading plus the Go runtime counters the
// benchmark attributes per op.
type usage struct {
	cpu      time.Duration // user + sys
	ctxsw    int64         // voluntary + involuntary context switches
	goAllocs uint64        // cumulative heap object allocations
	gcCPU    float64       // cumulative GC CPU seconds
	allCPU   float64       // cumulative total CPU seconds seen by the runtime
}

func rusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	// getrusage cannot fail for RUSAGE_SELF/RUSAGE_CHILDREN with a valid
	// pointer.
	_ = syscall.Getrusage(who, &ru)
	return ru
}

func cpuOf(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childCPU is the user+sys CPU of every child process reaped so far.
func childCPU() time.Duration { return cpuOf(rusage(syscall.RUSAGE_CHILDREN)) }

// readUsage snapshots this process's CPU, context switches and Go
// runtime counters. None of the reads stops the world.
func readUsage() usage {
	ru := rusage(syscall.RUSAGE_SELF)
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return usage{
		cpu:      cpuOf(ru),
		ctxsw:    ru.Nvcsw + ru.Nivcsw,
		goAllocs: s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		allCPU:   s[2].Value.Float64(),
	}
}

// sub returns u - v field by field.
func (u usage) sub(v usage) usage {
	return usage{
		cpu:      u.cpu - v.cpu,
		ctxsw:    u.ctxsw - v.ctxsw,
		goAllocs: u.goAllocs - v.goAllocs,
		gcCPU:    u.gcCPU - v.gcCPU,
		allCPU:   u.allCPU - v.allCPU,
	}
}

// statusKB reads one "Name:   N kB" field of /proc/<pid>/status in bytes.
func statusKB(pid, field string) (uint64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		v, ok := strings.CutPrefix(line, field+":")
		if !ok {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			break
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s %s: %w", pid, field, err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("/proc/%s/status: no %s", pid, field)
}

// peakRSS is this process's peak resident set (VmHWM) as the kernel
// reports it.
func peakRSS() (uint64, error) { return statusKB("self", "VmHWM") }

// childPeakRSS sums the peak resident sets of this process's live child
// processes (the service's wire workers).
func childPeakRSS() (sum uint64, n int, err error) {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return 0, 0, err
	}
	self := strconv.Itoa(os.Getpid())
	for _, e := range ents {
		pid := e.Name()
		if pid[0] < '0' || pid[0] > '9' {
			continue
		}
		b, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
		if err != nil {
			continue // exited while scanning
		}
		// Fields after the parenthesised command name: state ppid ...
		rest := b[bytes.LastIndexByte(b, ')')+1:]
		f := strings.Fields(string(rest))
		if len(f) < 2 || f[1] != self {
			continue
		}
		kb, err := statusKB(pid, "VmHWM")
		if err != nil {
			continue
		}
		sum += kb
		n++
	}
	return sum, n, nil
}

// typedErr reports whether err belongs to the service's typed error
// vocabulary. Anything else escaping a service call — including the
// wire's OpaqueError, which carries an untyped worker error — is a
// contract violation.
func typedErr(err error) bool {
	var (
		down     *transport.ShardDownError
		deadline *transport.DeadlineError
		closed   *transport.ClosedError
		frame    *transport.FrameError
		oom      *tcmalloc.OutOfMemoryError
		exh      *proc.ExhaustedError
		fault    *vmem.Fault
	)
	return errors.As(err, &down) || errors.As(err, &deadline) ||
		errors.As(err, &closed) || errors.As(err, &frame) ||
		errors.As(err, &oom) || errors.As(err, &exh) || errors.As(err, &fault)
}

// betweenPasses collects the garbage of the previous pass, returns the
// freed memory to the OS and resets the kernel's peak-RSS mark, so each
// pass starts from the same heap state and its VmHWM is its own peak. It
// is never inside a timed region. Where /proc/self/clear_refs is not
// writable the mark is not reset and a pass reports the running peak.
func betweenPasses() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakSampler polls a pair of gauges every millisecond from its own
// goroutine and keeps the largest values seen; traced passes use it for
// the detector's resident metadata peaks.
type peakSampler struct {
	read func() (uint64, uint64)
	stop chan struct{}
	done chan struct{}
	a, b uint64
}

func startPeakSampler(read func() (uint64, uint64)) *peakSampler {
	s := &peakSampler{read: read, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *peakSampler) sample() {
	a, b := s.read()
	s.a, s.b = max(s.a, a), max(s.b, b)
}

// finish stops the sampler, takes a last sample and returns the peaks.
func (s *peakSampler) finish() (uint64, uint64) {
	close(s.stop)
	<-s.done
	s.sample()
	return s.a, s.b
}
