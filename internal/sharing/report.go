package sharing

import (
	"fmt"
	"math/bits"
	"sort"

	"origin2000/internal/memclass"
)

// Split is the run-wide miss-cause decomposition. Coherence misses
// split exactly: Coherence == TrueSharing + FalseSharing + Pending,
// where Pending counts misses whose verdict never settled (the copy was
// still live, untouched, at the end of the run). A pending miss brought
// remotely-written data the processor never used, so reports fold it
// into the false side.
type Split struct {
	Cold         int64 `json:"cold"`
	Replacement  int64 `json:"replacement"`
	Coherence    int64 `json:"coherence"`
	TrueSharing  int64 `json:"true_sharing"`
	FalseSharing int64 `json:"false_sharing"`
	Pending      int64 `json:"pending"`
}

// FalseTotal is the false-sharing count including unsettled misses.
func (s Split) FalseTotal() int64 { return s.FalseSharing + s.Pending }

// PatternStat aggregates the blocks of one sharing pattern.
type PatternStat struct {
	Pattern   string `json:"pattern"`
	Blocks    int    `json:"blocks"`
	Misses    int64  `json:"misses"` // demand misses (all classes but Upgrade)
	Remote    int64  `json:"remote"`
	Coherence int64  `json:"coherence"`
	Upgrades  int64  `json:"upgrades"`
}

// BlockReport is one block's classification for the report tables.
type BlockReport struct {
	Block        uint64 `json:"block"`
	Page         uint64 `json:"page"`
	Home         int    `json:"home"`
	Pattern      string `json:"pattern"`
	Readers      int    `json:"readers"`
	Writers      int    `json:"writers"`
	Reads        int64  `json:"reads"`
	Writes       int64  `json:"writes"`
	Misses       int64  `json:"misses"`
	Remote       int64  `json:"remote"`
	Upgrades     int64  `json:"upgrades"`
	Cold         int64  `json:"cold"`
	Replacement  int64  `json:"replacement"`
	Coherence    int64  `json:"coherence"`
	TrueSharing  int64  `json:"true_sharing"`
	FalseSharing int64  `json:"false_sharing"` // includes unsettled
	MaxFanout    int    `json:"max_fanout"`
	WordsWritten int    `json:"words_written"`
	// Advice is the padding/placement suggestion for false-sharing
	// suspects; empty elsewhere.
	Advice string `json:"advice,omitempty"`
}

// PageReport is one page's remote-miss attribution.
type PageReport struct {
	Page   uint64 `json:"page"`
	Home   int    `json:"home"`
	Remote int64  `json:"remote"`
}

// Report is the observer's aggregated diagnosis: the JSON shape stored
// in the metrics artifact's "sharing" section and served by
// origin-dash's /api/sharing.
type Report struct {
	Procs  int `json:"procs"`
	Nodes  int `json:"nodes"`
	Blocks int `json:"blocks"` // blocks ever touched

	Misses   [memclass.NumClasses]int64 `json:"misses"` // by shared miss class
	Split    Split                      `json:"split"`
	Patterns []PatternStat              `json:"patterns"`

	TopBlocks []BlockReport `json:"top_blocks"`
	Suspects  []BlockReport `json:"false_sharing_suspects,omitempty"`

	// NodeRemote counts remote misses served by each home node;
	// Imbalance is max over mean of that distribution (1.0 = perfectly
	// balanced homes, N = one node serves everything on an N-node
	// machine).
	NodeRemote []int64      `json:"node_remote"`
	Imbalance  float64      `json:"imbalance"`
	TopPages   []PageReport `json:"top_pages,omitempty"`

	Verdict string `json:"verdict"`
}

// demandMisses sums the block's classified demand misses (upgrades are
// ownership transitions, not fills, and are reported separately).
func (b *blockState) demandMisses() int64 {
	var n int64
	for c := memclass.Class(0); c < memclass.NumClasses; c++ {
		if c != memclass.Upgrade {
			n += int64(b.misses[c])
		}
	}
	return n
}

func (b *blockState) remoteMisses() int64 {
	return int64(b.misses[memclass.RemoteClean]) + int64(b.misses[memclass.RemoteDirty])
}

// blockReport renders one block's state.
func (o *Observer) blockReport(block uint64, b *blockState) BlockReport {
	hi := o.hiMasks(block)
	return BlockReport{
		Block:        block,
		Page:         uint64(b.page),
		Home:         int(b.home),
		Pattern:      o.patternOf(block, b).String(),
		Readers:      bits.OnesCount64(b.m.readers) + bits.OnesCount64(hi.readers),
		Writers:      bits.OnesCount64(b.m.writers) + bits.OnesCount64(hi.writers),
		Reads:        int64(b.reads),
		Writes:       int64(b.writes),
		Misses:       b.demandMisses(),
		Remote:       b.remoteMisses(),
		Upgrades:     int64(b.misses[memclass.Upgrade]),
		Cold:         int64(b.cold),
		Replacement:  int64(b.replacement),
		Coherence:    b.coherence(),
		TrueSharing:  int64(b.trueShare),
		FalseSharing: int64(b.falseShare) + b.pendingCount(),
		MaxFanout:    int(b.maxFanout),
		WordsWritten: popcount32(b.wordsWritten),
	}
}

// advice suggests the restructuring for a false-sharing suspect, from
// the paper's standard toolkit: pad per-writer data out to a block, or
// split the block's independently-written words apart.
func adviceFor(b BlockReport) string {
	if b.Writers >= 2 && b.WordsWritten >= 2 {
		return fmt.Sprintf("%d writers share %d words of one %d B block: pad each writer's datum to a full block, or split the structure per processor",
			b.Writers, b.WordsWritten, WordsPerBlock*WordBytes)
	}
	return "readers share a block with an independent writer: move the written word to its own block (pad to 128 B)"
}

// ranking keeps the rows of one report table: key descending, then block
// ascending, cut at the first n rows (n <= 0 keeps every row). Block
// numbers are unique, so the order is total. Candidates must arrive in
// ascending block order: a newcomer then ranks below every held row with
// an equal key, so a bounded table never needs more than n rows.
type ranking struct {
	n    int
	key  func(*BlockReport) int64
	rows []BlockReport
}

// admits reports whether a candidate with key k makes the table.
func (r *ranking) admits(k int64) bool {
	return r.n <= 0 || len(r.rows) < r.n || k > r.key(&r.rows[r.n-1])
}

// add files a candidate that admits accepted.
func (r *ranking) add(row BlockReport) {
	if r.n <= 0 {
		r.rows = append(r.rows, row) // sorted once, by sorted
		return
	}
	k := r.key(&row)
	i := sort.Search(len(r.rows), func(i int) bool { return r.key(&r.rows[i]) < k })
	if len(r.rows) < r.n {
		r.rows = append(r.rows, BlockReport{})
	}
	copy(r.rows[i+1:], r.rows[i:])
	r.rows[i] = row
}

// sorted returns the table in rank order.
func (r *ranking) sorted() []BlockReport {
	if r.n <= 0 {
		// Arrival order is block order, so a stable sort by key alone
		// breaks ties by block.
		sort.SliceStable(r.rows, func(i, j int) bool { return r.key(&r.rows[i]) > r.key(&r.rows[j]) })
	}
	return r.rows
}

// Report aggregates the observer's state into the diagnosis, bounding
// the per-block and per-page tables at top entries each (top <= 0 means
// unbounded). The result is a pure function of the deterministic
// simulation, so it is bit-identical across runs and engines.
func (o *Observer) Report(top int) *Report {
	o.flush()
	r := &Report{
		Procs:      o.nprocs,
		Nodes:      o.nnodes,
		NodeRemote: append([]int64(nil), o.nodeRemote...),
	}

	pat := make([]PatternStat, NumPatterns)
	for p := Pattern(0); p < NumPatterns; p++ {
		pat[p].Pattern = p.String()
	}
	// Top blocks by demand misses; false-sharing suspects (blocks whose
	// coherence traffic is mostly false) by false-miss volume.
	tops := ranking{n: top, key: func(b *BlockReport) int64 { return b.Misses }}
	suspects := ranking{n: top, key: func(b *BlockReport) int64 { return b.FalseSharing }}
	o.forEachBlock(func(blk uint64, b *blockState) {
		r.Blocks++
		for c := memclass.Class(0); c < memclass.NumClasses; c++ {
			r.Misses[c] += int64(b.misses[c])
		}
		r.Split.Cold += int64(b.cold)
		r.Split.Replacement += int64(b.replacement)
		r.Split.Coherence += b.coherence()
		r.Split.TrueSharing += int64(b.trueShare)
		r.Split.FalseSharing += int64(b.falseShare)
		r.Split.Pending += b.pendingCount()

		p, misses, coh := o.patternOf(blk, b), b.demandMisses(), b.coherence()
		pat[p].Blocks++
		pat[p].Misses += misses
		pat[p].Remote += b.remoteMisses()
		pat[p].Coherence += coh
		pat[p].Upgrades += int64(b.misses[memclass.Upgrade])

		if tops.admits(misses) {
			tops.add(o.blockReport(blk, b))
		}
		falseShare := int64(b.falseShare) + b.pendingCount()
		if coh >= 4 && falseShare*2 >= coh && suspects.admits(falseShare) {
			suspects.add(o.blockReport(blk, b))
		}
	})
	r.Patterns = pat
	r.TopBlocks = tops.sorted()
	r.Suspects = suspects.sorted()
	for i := range r.Suspects {
		r.Suspects[i].Advice = adviceFor(r.Suspects[i])
	}

	// Hotspot index: max/mean of remote misses served per home node.
	var total, max int64
	for _, n := range o.nodeRemote {
		total += n
		if n > max {
			max = n
		}
	}
	if total > 0 {
		mean := float64(total) / float64(len(o.nodeRemote))
		r.Imbalance = float64(max) / mean
	}

	pages := make([]PageReport, 0, o.npages)
	o.forEachPage(func(pg uint64, h *pageHead) {
		pages = append(pages, PageReport{Page: pg, Home: h.home, Remote: h.remote})
	})
	sort.Slice(pages, func(i, j int) bool {
		if pages[i].Remote != pages[j].Remote {
			return pages[i].Remote > pages[j].Remote
		}
		return pages[i].Page < pages[j].Page
	})
	if top > 0 && len(pages) > top {
		pages = pages[:top]
	}
	r.TopPages = pages

	r.Verdict = r.verdict()
	return r
}

// verdict condenses the diagnosis into the report's one-line answer to
// "why doesn't it scale". Thresholds are deliberately coarse: the line
// names the dominant mechanism, the tables carry the evidence.
func (r *Report) verdict() string {
	remote := r.Misses[memclass.RemoteClean] + r.Misses[memclass.RemoteDirty]
	demand := remote + r.Misses[memclass.Local]
	falseShare := r.Split.FalseTotal()
	switch {
	case demand == 0:
		return "no memory traffic observed"
	case r.Split.Coherence >= 8 && falseShare*2 >= r.Split.Coherence:
		return fmt.Sprintf("false-sharing-bound: %d of %d coherence misses (%.0f%%) are false sharing — pad or split the suspect blocks",
			falseShare, r.Split.Coherence, 100*float64(falseShare)/float64(r.Split.Coherence))
	case r.Imbalance >= 3 && remote*4 >= demand:
		return fmt.Sprintf("home-hotspot-bound: remote misses concentrate %.1fx over the mean on one home node — redistribute or migrate the hot pages",
			r.Imbalance)
	case r.Split.Coherence*2 >= demand:
		return fmt.Sprintf("communication-bound (%s): %d of %d misses are coherence misses, %.0f%% true sharing",
			r.dominantSharedPattern(), r.Split.Coherence, demand,
			100*float64(r.Split.TrueSharing)/float64(maxInt64(r.Split.Coherence, 1)))
	case r.Split.Replacement*2 >= demand:
		return "capacity-bound: misses are dominated by replacement, not sharing"
	default:
		return "cold/compute-bound: coherence traffic is not the bottleneck"
	}
}

// dominantSharedPattern names the communicating pattern (migratory,
// producer-consumer or widely-shared) with the most coherence misses.
func (r *Report) dominantSharedPattern() string {
	best, bestN := "migratory", int64(-1)
	for _, p := range r.Patterns {
		switch p.Pattern {
		case "migratory", "producer-consumer", "widely-shared":
			if p.Coherence > bestN {
				best, bestN = p.Pattern, p.Coherence
			}
		}
	}
	return best
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// PatternRows renders the per-pattern summary as perf.Table rows.
func (r *Report) PatternRows() [][]string {
	rows := [][]string{{"pattern", "blocks", "misses", "remote", "coherence", "upgrades"}}
	for _, p := range r.Patterns {
		rows = append(rows, []string{
			p.Pattern, fmt.Sprint(p.Blocks), fmt.Sprint(p.Misses),
			fmt.Sprint(p.Remote), fmt.Sprint(p.Coherence), fmt.Sprint(p.Upgrades),
		})
	}
	return rows
}

// SplitRows renders the exact miss-cause decomposition.
func (r *Report) SplitRows() [][]string {
	return [][]string{
		{"miss cause", "count"},
		{"cold", fmt.Sprint(r.Split.Cold)},
		{"replacement", fmt.Sprint(r.Split.Replacement)},
		{"coherence: true sharing", fmt.Sprint(r.Split.TrueSharing)},
		{"coherence: false sharing", fmt.Sprint(r.Split.FalseTotal())},
	}
}

func blockRows(title string, blocks []BlockReport, n int) [][]string {
	rows := [][]string{{title, "pattern", "rd/wr procs", "misses", "remote", "true", "false", "fanout", "words"}}
	for i, b := range blocks {
		if n > 0 && i >= n {
			break
		}
		rows = append(rows, []string{
			fmt.Sprintf("%#x", b.Block), b.Pattern,
			fmt.Sprintf("%d/%d", b.Readers, b.Writers),
			fmt.Sprint(b.Misses), fmt.Sprint(b.Remote),
			fmt.Sprint(b.TrueSharing), fmt.Sprint(b.FalseSharing),
			fmt.Sprint(b.MaxFanout), fmt.Sprint(b.WordsWritten),
		})
	}
	return rows
}

// TopBlockRows renders the top-n blocks by demand misses.
func (r *Report) TopBlockRows(n int) [][]string { return blockRows("block", r.TopBlocks, n) }

// SuspectRows renders the top-n false-sharing suspects.
func (r *Report) SuspectRows(n int) [][]string { return blockRows("suspect block", r.Suspects, n) }

// NodeRows renders the home-node remote-miss distribution.
func (r *Report) NodeRows() [][]string {
	rows := [][]string{{"home node", "remote misses served", "share"}}
	var total int64
	for _, n := range r.NodeRemote {
		total += n
	}
	for node, n := range r.NodeRemote {
		share := "0%"
		if total > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total))
		}
		rows = append(rows, []string{fmt.Sprint(node), fmt.Sprint(n), share})
	}
	return rows
}

// PageRows renders the top-n pages by remote misses.
func (r *Report) PageRows(n int) [][]string {
	rows := [][]string{{"page", "home", "remote misses"}}
	for i, p := range r.TopPages {
		if n > 0 && i >= n {
			break
		}
		rows = append(rows, []string{fmt.Sprintf("%#x", p.Page), fmt.Sprint(p.Home), fmt.Sprint(p.Remote)})
	}
	return rows
}
