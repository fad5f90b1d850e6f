package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"origin2000/internal/experiments"
	"origin2000/internal/sim"
)

// options configures one benchmark invocation.
type options struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	div     int    // problem-size and cache divisor
	spans   string // directory for the traced run's Perfetto spans; "" writes none
}

// metric is one reported number. Dist holds the samples' distribution when
// the value is a median over passes (N > 0).
type metric struct {
	Name  string
	Unit  string
	Value float64
	Dist  summary
}

// result is everything one invocation measured.
type result struct {
	w            workload
	Seed         int64
	Traced       bool
	Host         hostInfo
	Attempted    int
	Failed       int
	Fingerprints []string // reference-pass fingerprint of each of w.Runs
	Metrics      []metric
	ledger       *ledger
}

func (r *result) add(name, unit string, xs []float64) {
	s := summarize(xs)
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: s.Median, Dist: s})
}

func (r *result) set(name, unit string, v float64) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v})
}

// measure runs one workload: a reference pass, a warm-up pass when the
// measured configuration differs from the reference, then timed passes
// until the time budget is spent.
func measure(o options) (*result, error) {
	w := o.w
	g := &gate{workload: w.Name, runs: w.Runs}
	ref := w.scale(o.div, o.seed, passReference)
	meas := w.scale(o.div, o.seed, passMeasured)

	refOuts := w.runPass(ref, nil)
	g.setReference(refOuts)
	if w.Workers > 0 || w.Observed {
		g.check("warm-up", w.runPass(meas, nil))
	}

	res := &result{w: w, Seed: o.seed, Traced: o.traced, Host: newHostInfo()}
	for _, out := range refOuts {
		res.Fingerprints = append(res.Fingerprints, out.fp)
	}
	if o.traced {
		if err := measureLayers(o, g, meas, refOuts, res); err != nil {
			return nil, err
		}
	} else {
		measureEndToEnd(o, g, meas, res)
	}
	res.Attempted, res.Failed = g.attempted, g.failed
	res.set("fail_rate", "ratio", float64(g.failed)/float64(g.attempted))
	return res, nil
}

// budget is a run's measuring time.
type budget struct {
	start   time.Time
	seconds float64
}

// fits reports whether a step expected to take next seconds ends within
// the budget.
func (b budget) fits(next float64) bool {
	return time.Since(b.start).Seconds()+next <= b.seconds
}

// measureEndToEnd times passes with tracing off. Before the first pass
// and after every pass it times the host reference (hostRef). It reports
// each timing as measured, as wall.*, and scaled to the reference host by
// the mean of the reference times on either side of the pass, which
// cancels most of this host's speed drift; the scaled timings are the
// benchmark's end-to-end metrics.
func measureEndToEnd(o options, g *gate, meas experiments.Scale, res *result) {
	calib := make([]float64, 5)
	for i := range calib {
		calib[i] = calibNS()
	}
	res.Host.CalibNS = summarize(calib).Median

	wall, scaled := newTimings(len(o.w.Runs)), newTimings(len(o.w.Runs))
	refs := []float64{hostRef()}
	b := budget{time.Now(), o.seconds}
	for len(wall.pass) == 0 || b.fits(summarize(wall.pass).Median+refs[0]) {
		c0 := cpuSeconds()
		t0 := time.Now()
		outs := o.w.runPass(meas, nil)
		d := time.Since(t0).Seconds()
		cpu := cpuSeconds() - c0
		g.check(fmt.Sprintf("timed %d", len(wall.pass)+1), outs)
		refs = append(refs, hostRef())
		k := refNominalS / ((refs[len(refs)-2] + refs[len(refs)-1]) / 2)
		wall.add(1, d, cpu, outs)
		scaled.add(k, d, cpu, outs)
	}
	scaled.report(res, "")
	res.set("peak_rss_mb", "MB", peakRSSMB())
	wall.report(res, "wall.")
	ms := make([]float64, len(refs))
	for i, r := range refs {
		ms[i] = r * 1e3
	}
	res.add("host.ref_ms", "ms", ms)
}

// timings collects a run's per-pass timings under one scaling.
type timings struct {
	pass, cpu, accessRate, setupSum []float64
	setup                           [][]float64 // by run
}

func newTimings(runs int) *timings { return &timings{setup: make([][]float64, runs)} }

// add records one pass, its times multiplied by k.
func (t *timings) add(k, pass, cpu float64, outs []runOut) {
	t.pass = append(t.pass, k*pass)
	t.cpu = append(t.cpu, k*cpu)
	t.accessRate = append(t.accessRate, float64(accesses(outs))/(k*pass))
	var sum float64
	for i, out := range outs {
		s := k * out.setup.Seconds()
		t.setup[i] = append(t.setup[i], s)
		sum += s
	}
	t.setupSum = append(t.setupSum, sum)
}

// report adds the timings' metrics, names prefixed by prefix. setup_s sums
// each run's median set-up time; its distribution is shown from the
// per-pass sums.
func (t *timings) report(res *result, prefix string) {
	res.add(prefix+"pass_s", "s", t.pass)
	res.add(prefix+"access_per_s", "1/s", t.accessRate)
	res.add(prefix+"cpu_s", "s", t.cpu)
	var setup float64
	for _, xs := range t.setup {
		setup += summarize(xs).Median
	}
	res.Metrics = append(res.Metrics, metric{Name: prefix + "setup_s", Unit: "s", Value: setup, Dist: summarize(t.setupSum)})
}

// measureLayers is the traced run. It times the layer microbenchmarks,
// then alternates untraced passes, which read runtime/metrics and give the
// tracing overhead's base, with CPU-profiled passes, which record spans
// and feed the ledger, and ends with one pass with the engine's host
// profiler on.
func measureLayers(o options, g *gate, meas experiments.Scale, refOuts []runOut, res *result) error {
	b := budget{time.Now(), o.seconds}
	units, err := measureUnitCosts(5)
	if err != nil {
		return err
	}
	res.Host.CalibNS = units["host.calib_ns"].Median

	led := newLedger()
	tr := newTracer(o.w.Name)
	var plainS, tracedS, gcCPU []float64
	var allocBytes, accessed float64
	var sched schedHist
	for len(tracedS) == 0 || b.fits(2*summarize(plainS).Median+summarize(tracedS).Median) {
		runtime.GC()
		r0 := readRuntime()
		t0 := time.Now()
		outs := o.w.runPass(meas, nil)
		d := time.Since(t0).Seconds()
		r1 := readRuntime()
		g.check(fmt.Sprintf("untraced %d", len(plainS)+1), outs)
		plainS = append(plainS, d)
		gcCPU = append(gcCPU, r1.gcCPU-r0.gcCPU)
		allocBytes += r1.alloc - r0.alloc
		accessed += float64(accesses(outs))
		sched.addDelta(r0.sched, r1.sched)

		runtime.GC()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		t0 = time.Now()
		outs = o.w.runPass(meas, tr)
		d = time.Since(t0).Seconds()
		pprof.StopCPUProfile()
		g.check(fmt.Sprintf("traced %d", len(tracedS)+1), outs)
		samples, err := decodeProfile(prof.Bytes())
		if err != nil {
			return err
		}
		led.add(d, samples)
		tracedS = append(tracedS, d)
	}
	tr.finish()

	runtime.GC()
	hpOuts := o.w.runPass(o.w.scale(o.div, o.seed, passHostProf), nil)
	g.check("hostprof", hpOuts)

	res.ledger = led
	res.set("ledger.pass_s", "s", led.passS())
	var observers float64
	for _, bucket := range append(ledgerBuckets, led.extraBuckets()...) {
		res.set(bucket, "s", led.perPass(bucket))
	}
	for _, l := range observerLayers {
		observers += led.perPass(l + ".self_s")
	}
	res.set("observers.self_s", "s", observers)
	res.set("ledger.residual_s", "s", led.residual())
	res.set("ledger.overhead_ratio", "ratio", summarize(tracedS).Median/summarize(plainS).Median)

	total := spanTotals(tr.spans)
	perPass := func(name string) float64 { return total[name].Seconds() / float64(len(tracedS)) }
	res.set("bench.setup_s", "s", perPass("setup"))
	res.set("bench.collect_s", "s", perPass("collect"))
	res.set("trace.export_s", "s", perPass("trace.export"))
	res.set("sharing.report_s", "s", perPass("sharing.report"))
	if o.spans != "" {
		if err := writeSpans(o, tr); err != nil {
			return err
		}
	}

	addCounts(res, refOuts)
	addHostProf(res, hpOuts)

	res.add("runtime.gc_cpu_s", "s", gcCPU)
	res.set("runtime.alloc_bytes_per_access", "B", allocBytes/accessed)
	res.set("runtime.sched_latency_p99_us", "us", sched.quantile(0.99)*1e6)

	for _, u := range unitCosts {
		res.Metrics = append(res.Metrics, metric{Name: u.name, Unit: "ns", Value: units[u.name].Median, Dist: units[u.name]})
	}
	// The engine round trip over the bare ping-pong measured in the same
	// process stays comparable across hosts of different speed.
	res.set("sim.handoff_ratio", "ratio", units["sim.handoff_ns"].Median/units["host.calib_ns"].Median)
	return nil
}

func writeSpans(o options, tr *tracer) error {
	if err := os.MkdirAll(o.spans, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.spans.json", o.w.Name, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writePerfetto(f, tr.spans); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("spans written to", path)
	return nil
}

// addCounts reports the deterministic per-pass counts of the reference
// pass: work done by the access path, the coherence protocol,
// synchronisation and the engine's schedule.
func addCounts(res *result, outs []runOut) {
	var c sim.Counters
	var sh sim.SchedShape
	for _, o := range outs {
		c.Add(&o.counters)
		sh.Windows += o.shape.Windows
		sh.ShardChains += o.shape.ShardChains
		sh.CommitRuns += o.shape.CommitRuns
		sh.RunAheadHandoffs += o.shape.RunAheadHandoffs
	}
	acc := c.Reads + c.Writes
	res.set("core.accesses", "count", float64(acc))
	res.set("cache.hit_ratio", "ratio", ratio(c.Hits, acc))
	res.set("core.local_misses", "count", float64(c.LocalMisses))
	res.set("core.remote_misses", "count", float64(c.RemoteClean+c.RemoteDirty))
	res.set("directory.invalidations", "count", float64(c.Invalidations))
	res.set("directory.upgrades", "count", float64(c.Upgrades))
	res.set("directory.interventions", "count", float64(c.RemoteDirty))
	res.set("mempolicy.migrations", "count", float64(c.PageMigrations))
	res.set("synchro.lock_acquires", "count", float64(c.LockAcquires))
	res.set("synchro.barrier_waits", "count", float64(c.BarrierWaits))
	res.set("sim.windows", "count", float64(sh.Windows))
	res.set("sim.shard_chains", "count", float64(sh.ShardChains))
	res.set("sim.commit_runs", "count", float64(sh.CommitRuns))
	res.set("sim.commit_share", "ratio", ratio(sh.CommitRuns, sh.CommitRuns+sh.ShardChains))
	res.set("sim.run_ahead_handoffs", "count", float64(sh.RunAheadHandoffs))
}

// addHostProf reports engine host health from the host-profiled pass,
// aggregated over its runs.
func addHostProf(res *result, outs []runOut) {
	var wall, busy, commit, attempts, hits, turnN, turnSum, p99 int64
	workers := 1
	for _, o := range outs {
		r := o.host
		if r == nil {
			continue
		}
		wall += r.WallNS
		for _, l := range r.Lanes {
			busy += l.BusyNS
		}
		commit += r.CommitNS
		attempts += r.StealAttempts
		hits += r.StealHits
		turnN += r.Turnover.Count
		turnSum += r.Turnover.MeanNS * r.Turnover.Count
		p99 = max(p99, r.Turnover.P99NS)
		workers = r.Workers
	}
	res.set("sim.worker_util", "ratio", ratio(busy, wall*int64(workers)))
	res.set("sim.commit_host_share", "ratio", ratio(commit, wall))
	res.set("sim.steal_hit_rate", "ratio", ratio(hits, attempts))
	res.set("sim.turnover_mean_ns", "ns", ratio(turnSum, turnN))
	res.set("sim.turnover_p99_ns", "ns", float64(p99))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runtimeSnap is one reading of the Go runtime's own metrics.
type runtimeSnap struct {
	gcCPU float64 // estimated GC CPU seconds, cumulative
	alloc float64 // heap bytes allocated, cumulative
	sched *rtmetrics.Float64Histogram
}

func readRuntime() runtimeSnap {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/latencies:seconds"},
	}
	rtmetrics.Read(s)
	var r runtimeSnap
	if s[0].Value.Kind() == rtmetrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == rtmetrics.KindUint64 {
		r.alloc = float64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == rtmetrics.KindFloat64Histogram {
		r.sched = s[2].Value.Float64Histogram()
	}
	return r
}

// schedHist accumulates the goroutine scheduling-latency histogram over
// the untraced passes.
type schedHist struct {
	buckets []float64
	counts  []uint64
}

func (h *schedHist) addDelta(a, b *rtmetrics.Float64Histogram) {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return
	}
	if h.counts == nil {
		h.buckets = b.Buckets
		h.counts = make([]uint64, len(b.Counts))
	}
	for i := range b.Counts {
		h.counts[i] += b.Counts[i] - a.Counts[i]
	}
}

// quantile interpolates linearly inside the bucket holding quantile q.
func (h *schedHist) quantile(q float64) float64 {
	var total uint64
	for _, c := range h.counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := h.buckets[i], h.buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return h.buckets[len(h.buckets)-1]
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set in MiB (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostInfo names the host a result was measured on.
type hostInfo struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CalibNS    float64 `json:"calib_ns"`
}

func newHostInfo() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
