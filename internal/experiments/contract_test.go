package experiments

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"origin2000/internal/core"
	"origin2000/internal/mempolicy"
	"origin2000/internal/metrics"
	"origin2000/internal/scenario"
	"origin2000/internal/sim"
	"origin2000/internal/snapshot"
	"origin2000/internal/trace"
)

// The contract suite (DESIGN.md §11): observers, the parallel engine and
// checkpoint resume must leave every simulated result bit-identical.
// TestContract runs a grid of variants of each key and compares every run's
// fingerprints with testdata/fingerprints.json. The table changes only
// through
//
//	go test ./internal/experiments -run TestContract -update
//
// so a change that moves results shows in its diff exactly which runs moved.

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.json from serial runs")

const (
	fingerprintFile = "testdata/fingerprints.json"
	// fullGridEnv selects the full grid instead of the tier-1 sample.
	fullGridEnv = "ORIGIN_CONTRACT_FULL"
)

// A contractKey names one simulated run: the unit the table is keyed by.
// Every key runs the app's basic size at Div 64 and seed 42.
type contractKey struct {
	app      string
	procs    int
	scenario string   // a scenario preset; "origin" is the default machine
	quantum  sim.Time // engine window width; 0 is sim.DefaultQuantum
	migrate  bool     // round-robin placement with migration threshold 8
}

// contractKeys are the table's keys: every app at 32 processors, FFT on two
// other machines, Protein on the limited-pointer directory, the quantum
// ablation's widest window, page migration, and 128 processors.
var contractKeys = func() []contractKey {
	var keys []contractKey
	for _, app := range Apps() {
		keys = append(keys, appKey(app.Name()))
	}
	const wide = 4 * sim.Microsecond
	return append(keys,
		scenarioKey("mesh"),
		contractKey{app: "FFT", procs: 32, scenario: "limited"},
		scenarioKey("limited"),
		contractKey{app: "Barnes", procs: 32, scenario: "origin", quantum: wide},
		contractKey{app: "FFT", procs: 32, scenario: "origin", quantum: wide},
		contractKey{app: "Raytrace", procs: 32, scenario: "origin", quantum: wide},
		contractKey{app: "Water-Nsquared", procs: 32, scenario: "origin", migrate: true},
		contractKey{app: "FFT", procs: 128, scenario: "origin"},
		contractKey{app: "Water-Nsquared", procs: 128, scenario: "origin", migrate: true},
	)
}()

func (k contractKey) window() sim.Time {
	if k.quantum == 0 {
		return sim.DefaultQuantum
	}
	return k.quantum
}

func (k contractKey) String() string {
	placement := "first-touch"
	if k.migrate {
		placement = "round-robin-migrate8"
	}
	return fmt.Sprintf("%s/%d/%s/%v/%s", k.app, k.procs, k.scenario, k.window(), placement)
}

// appKey is an app's 32-processor run on the default machine.
func appKey(app string) contractKey {
	return contractKey{app: app, procs: 32, scenario: "origin"}
}

// scenarioKey is the key a row runs on the machine its scenario spelling
// names: FFT on the mesh and on the default machine, and Protein on the
// limited-pointer directory, the cheapest app whose sharers overflow the
// pointers and whose run there reaches a quiescent point a quarter in, so it
// can be resumed (FFT's sharers never overflow, so FFT on limited hashes like
// FFT on origin).
func scenarioKey(spell string) contractKey {
	switch spell {
	case "mesh":
		return contractKey{app: "FFT", procs: 32, scenario: "mesh"}
	case "limited":
		return contractKey{app: "Protein", procs: 32, scenario: "limited"}
	}
	return appKey("FFT")
}

// isApp reports whether k is one app's 32-processor run on the default
// machine.
func (k contractKey) isApp() bool {
	return k == appKey(k.app)
}

// config builds the key's machine at scale s.
func (k contractKey) config(s Scale) core.Config {
	cfg := s.Machine(k.procs)
	cfg.Quantum = k.quantum
	if k.migrate {
		cfg.Placement = mempolicy.RoundRobin
		cfg.IgnorePlacement = true
		cfg.MigrationThreshold = 8
	}
	return cfg
}

// observers is a set of the machine's observers.
type observers uint8

const (
	obsTrace observers = 1 << iota
	obsCheck
	obsMetrics
	obsSharing
	obsCritPath
	obsHostProf
	obsAll = obsTrace | obsCheck | obsMetrics | obsSharing | obsCritPath | obsHostProf
)

func (o observers) String() string {
	switch o {
	case 0:
		return "none"
	case obsAll:
		return "all"
	}
	var names []string
	for i, n := range []string{"trace", "check", "metrics", "sharing", "critpath", "hostprof"} {
		if o&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	return strings.Join(names, "+")
}

// The grid's axes. A row takes one value on each.
var (
	gridEngines   = []int{0, 1, 2, 8} // worker counts; 0 is the serial engine
	gridObservers = []observers{0, obsTrace, obsCheck, obsMetrics, obsSharing, obsCritPath, obsHostProf, obsAll}
	// gridScenarios are the scenario as a row writes it: the default
	// machine three ways (nil, scenario.Default() and the preset), then
	// two other presets.
	gridScenarios = []string{"nil", "default", "origin", "mesh", "limited"}
	gridResumes   = []string{"none", "memory", "disk"}
)

// A contractRow is one variant of one key.
type contractRow struct {
	key      contractKey
	workers  int // 0 runs the serial engine, otherwise the parallel one
	obs      observers
	spell    string // one of gridScenarios
	resume   string // one of gridResumes
	maxProcs int    // GOMAXPROCS while the row runs; 0 leaves it alone
}

func (r contractRow) engine() string {
	if r.workers == 0 {
		return "serial"
	}
	return fmt.Sprintf("parallel-w%d", r.workers)
}

// setting is the row's values on every axis but the engine.
func (r contractRow) setting() string {
	v := fmt.Sprintf("observers=%v scenario=%s resume=%s", r.obs, r.spell, r.resume)
	if r.maxProcs > 0 {
		v += fmt.Sprintf(" GOMAXPROCS=%d", r.maxProcs)
	}
	return v
}

func (r contractRow) variant() string {
	return r.engine() + " " + r.setting()
}

// axes returns the row's value on each grid axis.
func (r contractRow) axes() []string {
	return []string{"engine=" + r.engine(), "observers=" + r.obs.String(), "scenario=" + r.spell, "resume=" + r.resume}
}

// valid reports whether the row's values go together: the host profiler
// alone runs on parallel rows only, as it always has; a snapshot whose
// observers forced one worker refuses a resume that asks for more
// (TestResumeWorkersMismatch); and a key admits only the spellings of its
// own scenario.
func (r contractRow) valid() bool {
	if r.obs == obsHostProf && r.workers == 0 {
		return false
	}
	if r.resume != "none" && r.workers > 1 && r.obs&(obsCheck|obsMetrics|obsSharing) != 0 {
		return false
	}
	return r.spell == r.key.scenario || r.key.scenario == "origin" && (r.spell == "nil" || r.spell == "default")
}

// scale builds the row's Scale: its engine, its scenario as spelled and its
// observers.
func (r contractRow) scale() Scale {
	s := Scale{Div: 64, CacheDiv: 64,
		Check: r.obs&obsCheck != 0, Sharing: r.obs&obsSharing != 0,
		CritPath: r.obs&obsCritPath != 0, HostProf: r.obs&obsHostProf != 0}
	if r.workers > 0 {
		s.Engine, s.Workers = "parallel", r.workers
	}
	if r.obs&obsTrace != 0 {
		s.Trace = trace.Options{Enabled: true, Lossless: true}
	}
	if r.obs&obsMetrics != 0 {
		s.Metrics = metrics.Options{Enabled: true, Interval: 10 * sim.Microsecond}
	}
	switch r.spell {
	case "nil":
	case "default":
		spec := scenario.Default()
		s.Scenario = &spec
	default:
		spec, _ := scenario.Named(r.spell)
		s.Scenario = &spec
	}
	return s
}

// grid lists every valid combination of axis values, in axis order, each on
// the key keyOf picks for its scenario spelling.
func grid(keyOf func(spell string) contractKey) []contractRow {
	var rows []contractRow
	for _, w := range gridEngines {
		for _, o := range gridObservers {
			for _, sc := range gridScenarios {
				for _, rs := range gridResumes {
					r := contractRow{key: keyOf(sc), workers: w, obs: o, spell: sc, resume: rs}
					if r.valid() {
						rows = append(rows, r)
					}
				}
			}
		}
	}
	return rows
}

// pairs lists the pairs of axis values r takes together.
func (r contractRow) pairs() [][2]string {
	a := r.axes()
	var out [][2]string
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			out = append(out, [2]string{a[i], a[j]})
		}
	}
	return out
}

// pinned are rows tier-1 always runs on the apps' 32-processor keys: each
// app traced straight through and resumed from memory under every engine;
// the sharing classifier and the host profiler under every engine that
// runs them; the checker, sampler and classifier together, and the checker
// and sampler resumed; the sampler and the checker alone; a resume from
// disk; and the three spellings of the default machine. No apps means
// every app.
var pinned = []struct {
	apps    []string
	engines []int
	obs     observers
	resume  string
	spell   string
}{
	{nil, gridEngines, obsTrace, "none", "origin"},
	{nil, gridEngines, obsTrace, "memory", "origin"},
	{[]string{"FFT", "Radix"}, gridEngines, obsSharing, "none", "origin"},
	{[]string{"Ocean", "Barnes"}, []int{1, 2, 8}, obsHostProf, "none", "origin"},
	{[]string{"FFT", "Raytrace"}, []int{0, 8}, obsCheck | obsMetrics | obsSharing, "none", "origin"},
	{[]string{"FFT", "Raytrace"}, []int{0, 1}, obsCheck | obsMetrics, "memory", "origin"},
	{[]string{"FFT", "Ocean"}, []int{0}, obsMetrics, "none", "origin"},
	{[]string{"FFT"}, []int{0}, obsCheck, "none", "origin"},
	{[]string{"FFT"}, []int{0}, 0, "disk", "origin"},
	{[]string{"FFT"}, []int{0}, 0, "none", "nil"},
	{[]string{"FFT"}, []int{0}, 0, "none", "default"},
	{[]string{"FFT"}, []int{0}, 0, "none", "origin"},
}

// tier1Grid is the sample every test run checks: one traced, sampled row on
// a single host thread, every other key under every engine, and the pinned
// rows. Then rows on the cheaper half of the apps, in turn, are added until
// every pair of axis values appears in some row; each covers the most pairs
// not yet covered, the first in axis order among equals.
func tier1Grid(table map[string]tableEntry) []contractRow {
	rows := []contractRow{{key: appKey("Ocean"), obs: obsAll, spell: "origin", resume: "none", maxProcs: 1}}
	for _, k := range contractKeys {
		if k.isApp() {
			continue // the pinned rows run every app's key
		}
		for _, w := range gridEngines {
			rows = append(rows, contractRow{key: k, workers: w, spell: k.scenario, resume: "none"})
		}
	}
	for _, p := range pinned {
		apps := p.apps
		if apps == nil {
			for _, app := range Apps() {
				apps = append(apps, app.Name())
			}
		}
		for _, w := range p.engines {
			for _, app := range apps {
				rows = append(rows, contractRow{key: appKey(app), workers: w, obs: p.obs, spell: p.spell, resume: p.resume})
			}
		}
	}
	covered := map[[2]string]bool{}
	cheap := cheapApps(table)
	for n := 0; ; n++ {
		for _, r := range rows {
			for _, p := range r.pairs() {
				covered[p] = true
			}
		}
		best, bestGain := contractRow{}, 0
		for _, c := range grid(scenarioKey) {
			gain := 0
			for _, p := range c.pairs() {
				if !covered[p] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = c, gain
			}
		}
		if bestGain == 0 {
			return rows
		}
		if best.key.isApp() {
			best.key = cheap[n%len(cheap)]
		}
		rows = append(rows, best)
	}
}

// cheapApps is the cheaper half of the apps' 32-processor keys, by the
// table's elapsed times.
func cheapApps(table map[string]tableEntry) []contractKey {
	var apps []contractKey
	for _, k := range contractKeys {
		if k.isApp() {
			apps = append(apps, k)
		}
	}
	slices.SortStableFunc(apps, func(a, b contractKey) int {
		return cmp.Compare(table[a.String()].Elapsed, table[b.String()].Elapsed)
	})
	return apps[:len(apps)/2]
}

// fullGrid is the tier-1 sample, every valid combination of axis values
// with the default machine's rows taking its 32-processor keys in turn, and
// FFT/128 resumed under the serial engine and eight workers.
func fullGrid(table map[string]tableEntry) []contractRow {
	var origin []contractKey
	for _, k := range contractKeys {
		if k.procs == 32 && k.scenario == "origin" {
			origin = append(origin, k)
		}
	}
	n := 0
	rows := append(tier1Grid(table), grid(func(spell string) contractKey {
		if k := scenarioKey(spell); !k.isApp() {
			return k
		}
		n++
		return origin[(n-1)%len(origin)]
	})...)
	fft128 := contractKey{app: "FFT", procs: 128, scenario: "origin"}
	for _, w := range []int{0, 8} {
		rows = append(rows, contractRow{key: fft128, workers: w, spell: "origin", resume: "memory"})
	}
	seen := map[contractRow]bool{}
	return slices.DeleteFunc(rows, func(r contractRow) bool {
		dup := seen[r]
		seen[r] = true
		return dup
	})
}

// tableEntry is one key's line in the table: the run's elapsed virtual
// time, which places the resume rows' snapshots, and each component's
// fingerprint.
type tableEntry struct {
	Elapsed sim.Time          `json:"elapsed"`
	Hash    map[string]string `json:"hash"`
}

func readTable(t *testing.T) map[string]tableEntry {
	t.Helper()
	b, err := os.ReadFile(fingerprintFile)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	var table map[string]tableEntry
	if err := json.Unmarshal(b, &table); err != nil {
		t.Fatalf("%s: %v", fingerprintFile, err)
	}
	return table
}

// writeTable writes the table one key per line, in sorted order.
func writeTable(t *testing.T, table map[string]tableEntry) {
	t.Helper()
	var lines []string
	for k, e := range table {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%q:%s", k, b))
	}
	sort.Strings(lines)
	if err := os.WriteFile(fingerprintFile, []byte("{\n"+strings.Join(lines, ",\n")+"\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writerTo is an output that writes itself into a digest.
type writerTo func(io.Writer) error

// digest returns the first 16 hex digits of the SHA-256 over parts: a
// writerTo's bytes, any other part's JSON encoding.
func digest(t *testing.T, parts ...any) string {
	t.Helper()
	h := sha256.New()
	for _, p := range parts {
		var err error
		if w, ok := p.(writerTo); ok {
			err = w(h)
		} else {
			var b []byte
			b, err = json.Marshal(p)
			h.Write(b)
		}
		if err != nil {
			t.Fatalf("fingerprint: %v", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// resultDigest fingerprints the run's result, its observer handles left
// out, with the schedule's shape.
func resultDigest(t *testing.T, res RunResult, m *core.Machine) string {
	t.Helper()
	res.Result.Trace, res.Result.Metrics = nil, nil
	return digest(t, res, m.SchedShape())
}

// fingerprint hashes what a run produced: the result, and the outputs of
// each observer that was on.
func fingerprint(t *testing.T, res RunResult, m *core.Machine) map[string]string {
	t.Helper()
	fp := map[string]string{"result": resultDigest(t, res, m)}
	if tr := m.Tracer(); tr != nil {
		fp["trace"] = digest(t, writerTo(tr.WriteBinary), writerTo(tr.WritePerfetto),
			tr.TopPages(0), tr.TopBlocks(0), tr.TopSync(0), tr.LatencyReport(), tr.QueueReport(), tr.Epochs())
	}
	if s := m.Sampler(); s != nil {
		fp["metrics"] = digest(t, s.AllProcSeries(), s.MachineSeries(), s.Epochs())
	}
	if c := m.Checker(); c != nil {
		fp["check"] = digest(t, c.Violations())
	}
	if r := m.SharingReport(0); r != nil {
		fp["sharing"] = digest(t, r)
	}
	if cp := m.CritPath(); cp != nil {
		fp["critpath"] = digest(t, cp)
	}
	return fp
}

// run executes the row's key on cfg at scale s and returns the result and
// the machine.
func (r contractRow) run(t *testing.T, s Scale, cfg core.Config) (RunResult, *core.Machine) {
	t.Helper()
	app := AppByName(r.key.app)
	var m *core.Machine
	s.OnMachine = func(_ string, mm *core.Machine) { m = mm }
	res, err := s.RunConfig(app, cfg, s.Params(app, app.BasicSize(), ""))
	if err != nil {
		t.Fatal(err)
	}
	return res, m
}

// TestContract checks every row of the grid against the table: the tier-1
// sample by default, the full grid with ORIGIN_CONTRACT_FULL=1. With
// -update it rewrites the table instead, taking each key's result from a
// serial observer-free run and its observer fingerprints from a serial run
// with every observer on.
func TestContract(t *testing.T) {
	if *update {
		updateTable(t)
		return
	}
	table := readTable(t)
	rows := tier1Grid(table)
	if os.Getenv(fullGridEnv) != "" {
		rows = fullGrid(table)
	}
	// Rows that differ only in their engine run one after another, and
	// resume rows among them resume from one capture.
	run := func(t *testing.T, g []contractRow) {
		want, ok := table[g[0].key.String()]
		if !ok {
			t.Fatalf("no table entry for %v (add it with -update)", g[0].key)
		}
		var c *capture
		if g[0].resume != "none" {
			c = g[0].capture(t, want.Elapsed/4)
		}
		for _, r := range g {
			t.Run(r.engine(), func(t *testing.T) { r.check(t, want, c) })
		}
	}
	groups := engineGroups(rows)
	// GOMAXPROCS is process-wide, so a group that sets it runs before the
	// package's parallel tests start.
	for _, g := range groups {
		if g[0].maxProcs > 0 {
			t.Run(g[0].key.String()+" "+g[0].setting(), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(g[0].maxProcs))
				run(t, g)
			})
		}
	}
	t.Parallel()
	for _, g := range groups {
		if g[0].maxProcs == 0 {
			t.Run(g[0].key.String()+" "+g[0].setting(), func(t *testing.T) {
				t.Parallel()
				run(t, g)
			})
		}
	}
}

// engineGroups splits rows into groups that differ only in their engine,
// in the order each group first appears.
func engineGroups(rows []contractRow) [][]contractRow {
	index := map[contractRow]int{}
	var groups [][]contractRow
	for _, r := range rows {
		k := r
		k.workers = 0
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], r)
	}
	return groups
}

// TestContractGrid checks, without running a row, that the grids hold what
// the suite promises: tier-1 runs every key under every engine, each app
// traced under every engine straight through and resumed, and every pair
// of axis values together; the full grid adds every valid combination of
// axis values and FFT/128 resumed; and the other machines' keys hash apart
// from the default machine's.
func TestContractGrid(t *testing.T) {
	table := readTable(t)
	tier1, full := tier1Grid(table), fullGrid(table)
	for _, k := range contractKeys {
		if _, ok := table[k.String()]; !ok {
			t.Errorf("no table entry for %v", k)
		}
		for _, w := range gridEngines {
			if !slices.ContainsFunc(tier1, func(r contractRow) bool { return r.key == k && r.workers == w }) {
				t.Errorf("tier-1 never runs %v with %d workers", k, w)
			}
			for _, rs := range []string{"none", "memory"} {
				if k.isApp() && !slices.ContainsFunc(tier1, func(r contractRow) bool {
					return r.key == k && r.workers == w && r.obs&obsTrace != 0 && r.resume == rs
				}) {
					t.Errorf("tier-1 never runs %v traced with %d workers and resume=%s", k, w, rs)
				}
			}
		}
	}
	covered := map[[2]string]bool{}
	for _, r := range tier1 {
		for _, p := range r.pairs() {
			covered[p] = true
		}
	}
	for _, c := range grid(scenarioKey) {
		for _, p := range c.pairs() {
			if !covered[p] {
				t.Errorf("tier-1 never pairs %s with %s", p[0], p[1])
			}
		}
		if !slices.ContainsFunc(full, func(r contractRow) bool { return slices.Equal(r.axes(), c.axes()) }) {
			t.Errorf("the full grid lacks %s", c.variant())
		}
	}
	fft128 := contractKey{app: "FFT", procs: 128, scenario: "origin"}
	for _, w := range []int{0, 8} {
		if !slices.ContainsFunc(full, func(r contractRow) bool { return r.key == fft128 && r.workers == w && r.resume != "none" }) {
			t.Errorf("the full grid never resumes %v with %d workers", fft128, w)
		}
	}
	if !slices.ContainsFunc(tier1, func(r contractRow) bool { return r.maxProcs == 1 && r.obs&(obsTrace|obsMetrics) == obsTrace|obsMetrics }) {
		t.Error("no traced, sampled row runs at GOMAXPROCS=1")
	}
	for _, r := range full {
		if !r.valid() {
			t.Errorf("invalid row %v %s", r.key, r.variant())
		}
	}
	for _, spell := range []string{"mesh", "limited"} {
		k := scenarioKey(spell)
		if table[k.String()].Hash["result"] == table[appKey(k.app).String()].Hash["result"] {
			t.Errorf("%v hashes like %v: its rows never leave the default machine's paths", k, appKey(k.app))
		}
	}
}

func updateTable(t *testing.T) {
	var mu sync.Mutex
	table := map[string]tableEntry{}
	t.Run("update", func(t *testing.T) {
		for _, k := range contractKeys {
			t.Run(k.String(), func(t *testing.T) {
				t.Parallel()
				plain := contractRow{key: k, spell: k.scenario}
				res, m := plain.run(t, plain.scale(), k.config(plain.scale()))
				e := tableEntry{Elapsed: res.Elapsed, Hash: fingerprint(t, res, m)}
				observed := contractRow{key: k, obs: obsAll, spell: k.scenario}
				res, m = observed.run(t, observed.scale(), k.config(observed.scale()))
				for c, h := range fingerprint(t, res, m) {
					if c == "result" && h != e.Hash[c] {
						t.Fatalf("observers moved the result: %s, %s without them", h, e.Hash[c])
					}
					e.Hash[c] = h
				}
				mu.Lock()
				table[k.String()] = e
				mu.Unlock()
			})
		}
	})
	if !t.Failed() {
		writeTable(t, table)
	}
}

// A capture is the serial, checkpointed run that resume rows resume from:
// the result's fingerprint, the middle snapshot (read back from its file
// for a disk resume) and the snapshots after it.
type capture struct {
	result string
	from   *snapshot.Snapshot
	rest   []*snapshot.Snapshot
}

// capture runs the row's key on the serial engine with the row's observers,
// taking a snapshot every interval.
func (r contractRow) capture(t *testing.T, every sim.Time) *capture {
	t.Helper()
	r.workers = 0
	s := r.scale()
	app := AppByName(r.key.app)
	cfg := r.key.config(s)
	cfg.Checkpoint.Every = every
	cfg.Checkpoint.Spec = s.RunSpec(app, s.Params(app, app.BasicSize(), ""))
	if r.resume == "disk" {
		cfg.Checkpoint.Dir = t.TempDir()
	}
	var snaps []*snapshot.Snapshot
	cfg.Checkpoint.Sink = func(sn *snapshot.Snapshot) error {
		snaps = append(snaps, sn)
		return nil
	}
	res, m := r.run(t, s, cfg)
	if len(snaps) == 0 {
		t.Fatalf("captured no snapshot every %v", every)
	}
	mid := len(snaps) / 2
	c := &capture{result: resultDigest(t, res, m), from: snaps[mid], rest: slices.Clone(snaps[mid+1:])}
	if r.resume == "disk" {
		var err error
		if c.from, err = snapshot.ReadFile(m.Checkpoints()[mid]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.from.Validate(); err != nil {
		t.Fatalf("snapshot %d: %v", mid, err)
	}
	return c
}

// check runs the row, resuming from c's middle snapshot when it resumes,
// and compares the run with the key's table entry.
func (r contractRow) check(t *testing.T, want tableEntry, c *capture) {
	s := r.scale()
	cfg := r.key.config(s)
	if r.resume == "none" {
		res, m := r.run(t, s, cfg)
		r.verify(t, want, res, m)
		return
	}

	// The capture ran on the serial engine with the row's observers; it
	// must not move the result.
	every := want.Elapsed / 4
	if c.result != want.Hash["result"] {
		r.mismatch(t, "capture run", "result", c.result, want.Hash["result"])
	}
	sn := c.from
	forced := r.obs&(obsCheck|obsMetrics|obsSharing) != 0
	if sn.Has("checker") != (r.obs&obsCheck != 0) || sn.Has("tracer") != (r.obs&obsTrace != 0) ||
		sn.Has("metrics") != (r.obs&obsMetrics != 0) || sn.Has("sharing") != (r.obs&obsSharing != 0) ||
		sn.Header.WorkersForced != forced {
		t.Fatalf("snapshot's observer sections or workers=1 forcing do not match observers=%v", r.obs)
	}

	// Resume on the row's engine, still capturing: every snapshot after
	// the resume point must match the uninterrupted run's, digest for digest.
	app := AppByName(r.key.app)
	params := s.Params(app, app.BasicSize(), "")
	rcfg := cfg
	rcfg.Checkpoint.Every = every
	rcfg.Checkpoint.Spec = s.RunSpec(app, params)
	var tail []*snapshot.Snapshot
	rcfg.Checkpoint.Sink = func(sn *snapshot.Snapshot) error {
		tail = append(tail, sn)
		return nil
	}
	var m *core.Machine
	s.OnMachine = func(_ string, mm *core.Machine) { m = mm }
	res, err := s.ResumeConfig(app, rcfg, params, sn)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	r.verify(t, want, res, m)
	rest := c.rest
	if len(tail) != len(rest) {
		t.Errorf("resumed run captured %d snapshots after the resume point, the uninterrupted run %d", len(tail), len(rest))
	}
	for i := 0; i < len(tail) && i < len(rest); i++ {
		sec, ok := snapshot.Diff(rest[i], tail[i])
		if !ok && sec == "header" && headerProvenanceOnly(t, rest[i].Header, tail[i].Header) {
			// The header names the engine, worker count and directory
			// that wrote the file; every machine-state section matched.
			continue
		}
		if !ok {
			t.Errorf("post-resume snapshot %d differs in section %q", i, sec)
		}
	}
}

// verify compares a finished run of the row with the key's table entry and
// checks what the table cannot: which observers were built, the window
// width, that migration happened, and the host profiler's report.
func (r contractRow) verify(t *testing.T, want tableEntry, res RunResult, m *core.Machine) {
	t.Helper()
	// In observer bit order: trace, check, metrics, sharing, critpath, hostprof.
	built := []bool{m.Tracer() != nil, m.Checker() != nil, m.Sampler() != nil,
		m.SharingObserver() != nil, m.CritPath() != nil, m.HostProf() != nil}
	for i, b := range built {
		if o := observers(1 << i); b != (r.obs&o != 0) {
			t.Errorf("observer %v built=%v, want %v", o, b, !b)
		}
	}
	if tr := m.Tracer(); tr != nil && len(tr.TopPages(1)) == 0 {
		t.Error("tracer recorded no miss")
	}
	if s := m.Sampler(); s != nil && s.Samples() == 0 {
		t.Error("sampler recorded no sample")
	}
	if sh := m.SchedShape(); sh.Windows == 0 || sh.WindowWidthSum != sim.Time(sh.Windows)*r.key.window() {
		t.Errorf("%d windows of total width %v, want every window %v wide", sh.Windows, sh.WindowWidthSum, r.key.window())
	}
	if r.key.migrate && res.Result.Migrations == 0 {
		t.Error("no page migrated; the cross-shard remap path went unexercised")
	}
	if hp := m.HostProf(); hp != nil {
		cfg := m.Config()
		workers, _ := core.EffectiveWorkers(&cfg)
		if rep := hp.Report(); rep.WallNS <= 0 || rep.Workers != workers {
			t.Errorf("host profiler report: wall %dns over %d workers, want > 0 over %d", rep.WallNS, rep.Workers, workers)
		}
	}
	got := fingerprint(t, res, m)
	for _, c := range []string{"result", "trace", "metrics", "check", "sharing", "critpath"} {
		if h, ok := got[c]; ok && h != want.Hash[c] {
			r.mismatch(t, "run", c, h, want.Hash[c])
			if c == "trace" {
				saveTraceArtifact(t, r, m.Tracer())
			}
		}
	}
}

func (r contractRow) mismatch(t *testing.T, stage, component, got, want string) {
	t.Helper()
	t.Errorf("key %v, variant %s, %s: %s fingerprint %s, table has %q", r.key, r.variant(), stage, component, got, want)
}

// artifactName is the row as a file name.
func artifactName(r contractRow) string {
	return strings.NewReplacer("/", "_", " ", "_", "=", "-").Replace(r.key.String() + " " + r.variant())
}

// saveTraceArtifact drops a diverging run's Perfetto trace into the CI
// artifact directory (ORIGIN_TRACE_ARTIFACTS).
func saveTraceArtifact(t *testing.T, r contractRow, tr *trace.Tracer) {
	dir := trace.ArtifactDir()
	if dir == "" {
		return
	}
	path, err := trace.WriteArtifact(dir, "contract-"+artifactName(r), tr)
	if err != nil {
		t.Logf("trace artifact: %v", err)
		return
	}
	t.Logf("saved %s", path)
}

// headerProvenanceOnly reports whether two snapshot headers agree on
// everything except which engine and worker count produced them and where
// the files went.
func headerProvenanceOnly(t *testing.T, a, b snapshot.Header) bool {
	t.Helper()
	var ca, cb core.Config
	if err := json.Unmarshal(a.Config, &ca); err != nil {
		t.Fatalf("header config does not parse: %v", err)
	}
	if err := json.Unmarshal(b.Config, &cb); err != nil {
		t.Fatalf("header config does not parse: %v", err)
	}
	ca.Engine, cb.Engine = "", ""
	ca.Workers, cb.Workers = 0, 0
	ca.Checkpoint.Dir, cb.Checkpoint.Dir = "", ""
	a.Engine, b.Engine = "", ""
	a.Workers, b.Workers = 0, 0
	a.Config, b.Config = nil, nil
	return reflect.DeepEqual(a, b) && reflect.DeepEqual(ca, cb)
}
