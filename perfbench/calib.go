//go:build linux

package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration.
//
// The 2-vCPU hosts this benchmark runs on change speed while it runs, in
// two ways. Each vCPU switches, within fractions of a second, between a
// fast and a slow level about 1.8 times apart, largely independently of
// the other (the two vCPUs' speeds correlate at 0.2); a thread's own CPU
// time slows with it. And in bursts of tens of seconds the hypervisor
// takes the vCPUs away (steal time), which a thread's CPU time does not
// show but its wall time does. The share of time spent slow drifts over
// minutes, so no run length averages it away: two sets of ten runs of
// identical code put their median request times 38% apart.
//
// So the benchmark samples the host's speed all through a run: one
// sampler thread pinned to each CPU times a fixed calibration kernel, the
// benchmark's own code that no change to the program can touch, in wall
// time every samplerEvery. Every timing the benchmark bounds is then
// reported at the reference speed: multiplied by calibRefMs over the mean
// kernel time of the samples taken while it ran (a rate is divided by
// that factor). A change that slows the program moves the reported figure
// as much as the raw one; a host that slows everything moves it less. The
// raw wall figures and the kernel's own time are reported too (wall.*,
// host.calib_ms), so nothing is hidden by it.

// calibRefMs is the reference speed: the kernel's typical time on the
// host the bounds were set on (a 2-vCPU Xeon VM at 2.0 GHz: 0.11–0.13 ms
// on a fast vCPU, 0.20–0.24 ms on a slow one). It only scales the
// reported figures; comparisons between commits do not depend on it.
const calibRefMs = 0.2

// samplerEvery is how often each sampler runs the kernel: about 1% of a
// CPU. calibWindow is the shortest stretch a speed is taken over: a
// shorter timing is centred in one this long, so its speed comes from
// about ten samples while the vCPUs keep one speed for longer.
const (
	samplerEvery = 20 * time.Millisecond
	calibWindow  = 100 * time.Millisecond
)

// calibN is the kernel's matrix order: three 48×48 float64 matrices
// (54 KiB) sit in L2 like the forward's small dense operands.
const calibN = 48

// calibKernel is a fixed dense matrix product, the operation that
// dominates the forward, written here so it never changes with the
// program.
type calibKernel struct {
	a, b, c [calibN * calibN]float64
}

func newCalibKernel() *calibKernel {
	k := &calibKernel{}
	for i := range k.a {
		k.a[i] = float64(i%13) * 0.01
		k.b[i] = float64(i%11) * 0.02
	}
	return k
}

// run computes c += a·b twice.
func (k *calibKernel) run() {
	for r := 0; r < 2; r++ {
		for i := 0; i < calibN; i++ {
			for p := 0; p < calibN; p++ {
				av := k.a[i*calibN+p]
				row := k.b[p*calibN : (p+1)*calibN]
				out := k.c[i*calibN : (i+1)*calibN]
				for j := range out {
					out[j] += av * row[j]
				}
			}
		}
	}
}

// cpuMask is a sched_setaffinity CPU set.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs the process may run on.
func allowedCPUs() []int {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil
	}
	var out []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// pinThread binds the calling thread to one CPU.
func pinThread(cpu int) error {
	var m cpuMask
	m[cpu/64] |= 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return e
	}
	return nil
}

// calibSample is one kernel time in ms and when it finished.
type calibSample struct {
	at time.Time
	ms float64
}

// hostSampler runs one sampler thread per CPU for the whole run.
type hostSampler struct {
	mu      sync.Mutex
	samples []calibSample
	sorted  bool
	stop    chan struct{}
	wg      sync.WaitGroup
}

// startHostSampler starts a sampler on every CPU the process may use.
// Each sampler goroutine is locked to its own thread, which it pins to its
// CPU. After a sleep the thread preempts whatever program thread holds its
// CPU, so a sample measures the CPU's speed and the hypervisor's steal,
// not the program's load. A pinned thread ends with its goroutine, so the
// pinning never reaches the program's threads.
func startHostSampler() *hostSampler {
	h := &hostSampler{stop: make(chan struct{})}
	for _, cpu := range allowedCPUs() {
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			runtime.LockOSThread() // never unlocked: the thread exits with the goroutine
			if pinThread(cpu) != nil {
				return
			}
			k := newCalibKernel()
			tick := time.NewTicker(samplerEvery)
			defer tick.Stop()
			for {
				t0 := time.Now()
				k.run()
				t1 := time.Now()
				s := calibSample{at: t1, ms: float64(t1.Sub(t0).Nanoseconds()) / 1e6}
				h.mu.Lock()
				h.samples = append(h.samples, s)
				h.sorted = false
				h.mu.Unlock()
				select {
				case <-h.stop:
					return
				case <-tick.C:
				}
			}
		}()
	}
	return h
}

// close stops the samplers and waits for them to end.
func (h *hostSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

// kernelMs is the mean kernel time of the samples, from every CPU, that
// finished in [t0, t1], widened about its middle to calibWindow: the
// host's speed while [t0, t1] ran. With no sample in that stretch it uses
// the nearest one; with none at all it returns 0.
func (h *hostSampler) kernelMs(t0, t1 time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i].at.Before(h.samples[j].at) })
		h.sorted = true
	}
	if pad := (calibWindow - t1.Sub(t0)) / 2; pad > 0 {
		t0, t1 = t0.Add(-pad), t1.Add(pad)
	}
	s := h.samples
	lo := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(t0) })
	var sum float64
	n := 0
	for i := lo; i < len(s) && !s[i].at.After(t1); i++ {
		sum += s[i].ms
		n++
	}
	if n > 0 {
		return sum / float64(n)
	}
	i := min(lo, len(s)-1)
	if i > 0 && t0.Sub(s[i-1].at) < s[i].at.Sub(t1) {
		i--
	}
	return s[i].ms
}

// factor is the speed factor of [t0, t1]: calibRefMs over its kernel
// time, below 1 on a host slower than the reference. A timing times the
// factor, or a rate over it, is the figure at the reference speed.
// Without samples (no sampler could start) it is 1.
func (h *hostSampler) factor(t0, t1 time.Time) float64 {
	ms := h.kernelMs(t0, t1)
	if ms <= 0 || math.IsNaN(ms) {
		return 1
	}
	return calibRefMs / ms
}

// medianMs is the median kernel time between t0 and t1.
func (h *hostSampler) medianMs(t0, t1 time.Time) float64 {
	h.mu.Lock()
	var ms []float64
	for _, s := range h.samples {
		if !s.at.Before(t0) && !s.at.After(t1) {
			ms = append(ms, s.ms)
		}
	}
	h.mu.Unlock()
	return median(ms)
}
