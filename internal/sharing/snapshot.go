package sharing

import (
	"origin2000/internal/directory"
	"origin2000/internal/memclass"
)

// CopySnap is one processor's copy record in a BlockSnap.
type CopySnap struct {
	Proc        int    `json:"proc"`
	Live        bool   `json:"live,omitempty"`
	EverHeld    bool   `json:"ever_held,omitempty"`
	LostToInval bool   `json:"lost_to_inval,omitempty"`
	LossSeq     uint32 `json:"loss_seq,omitempty"`
	Pending     bool   `json:"pending,omitempty"`
	PendingMask uint32 `json:"pending_mask,omitempty"`
}

// BlockSnap is the classifier's serialized state for one block. Copies
// are sorted by processor so encoding is canonical.
type BlockSnap struct {
	Block        uint64                     `json:"block"`
	Page         uint64                     `json:"page"`
	Home         int                        `json:"home"`
	Readers      directory.Sharers          `json:"readers"`
	Writers      directory.Sharers          `json:"writers"`
	Reads        int64                      `json:"reads"`
	Writes       int64                      `json:"writes"`
	Misses       [memclass.NumClasses]int64 `json:"misses"`
	Cold         int64                      `json:"cold"`
	Replacement  int64                      `json:"replacement"`
	Coherence    int64                      `json:"coherence"`
	TrueShare    int64                      `json:"true_share"`
	FalseShare   int64                      `json:"false_share"`
	LastWriter   int16                      `json:"last_writer"`
	OwnerChanges int64                      `json:"owner_changes"`
	Invals       int64                      `json:"invals"`
	MaxFanout    int32                      `json:"max_fanout"`
	Seq          uint32                     `json:"seq"`
	WordSeq      [WordsPerBlock]uint32      `json:"word_seq"`
	WordsWritten uint32                     `json:"words_written"`
	Copies       []CopySnap                 `json:"copies,omitempty"`
}

// PageSnap is one page's remote-miss attribution record.
type PageSnap struct {
	Page   uint64 `json:"page"`
	Home   int    `json:"home"`
	Remote int64  `json:"remote"`
}

// Snap is the observer's full serializable state, in canonical order
// (blocks and pages ascending, copies by processor).
type Snap struct {
	Procs      int         `json:"procs"`
	Nodes      int         `json:"nodes"`
	NodeRemote []int64     `json:"node_remote"`
	Blocks     []BlockSnap `json:"blocks"`
	Pages      []PageSnap  `json:"pages,omitempty"`
}

// Snap captures the observer's state in canonical order. Capturing
// folds the event log first, so the snapshot reflects every event
// recorded so far.
func (o *Observer) Snap() Snap {
	o.flush()
	s := Snap{
		Procs:      o.nprocs,
		Nodes:      o.nnodes,
		NodeRemote: append([]int64(nil), o.nodeRemote...),
	}
	o.forEachBlock(func(blk uint64, b *blockState) {
		hi := o.hiMasks(blk)
		bs := BlockSnap{
			Block: blk, Page: uint64(b.page), Home: int(b.home),
			Readers: directory.Sharers{b.m.readers, hi.readers},
			Writers: directory.Sharers{b.m.writers, hi.writers},
			Reads:   int64(b.reads), Writes: int64(b.writes),
			Cold: int64(b.cold), Replacement: int64(b.replacement),
			Coherence: b.coherence(),
			TrueShare: int64(b.trueShare), FalseShare: int64(b.falseShare),
			LastWriter: b.lastWriter - 1, OwnerChanges: int64(b.ownerChanges),
			Invals: int64(b.invals), MaxFanout: int32(b.maxFanout),
			Seq: b.seq, WordsWritten: b.wordsWritten,
		}
		for c := range b.misses {
			bs.Misses[c] = int64(b.misses[c])
		}
		var ls, pw []uint32
		if b.wordSeqID != 0 {
			var ws []uint32
			ws, ls, pw = o.watchRow(b.wordSeqID)
			copy(bs.WordSeq[:], ws)
		}
		for proc := 0; proc < o.nprocs; proc++ {
			var live, held, lost bool
			if proc < 64 {
				bit := uint64(1) << uint(proc)
				live, held, lost = b.m.live&bit != 0, b.m.everHeld&bit != 0, b.m.lost&bit != 0
			} else {
				bit := uint64(1) << uint(proc-64)
				live, held, lost = hi.live&bit != 0, hi.everHeld&bit != 0, hi.lost&bit != 0
			}
			var loss, pend uint32
			if ls != nil {
				loss, pend = ls[proc], pw[proc]
			}
			if !live && !held && !lost && loss == 0 && pend == 0 {
				continue
			}
			bs.Copies = append(bs.Copies, CopySnap{
				Proc: proc, Live: live, EverHeld: held, LostToInval: lost,
				LossSeq: loss, Pending: pend != 0, PendingMask: pend,
			})
		}
		s.Blocks = append(s.Blocks, bs)
	})
	o.forEachPage(func(pg uint64, h *pageHead) {
		s.Pages = append(s.Pages, PageSnap{Page: pg, Home: h.home, Remote: h.remote})
	})
	return s
}
