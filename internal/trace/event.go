package trace

import (
	"strconv"

	"origin2000/internal/sim"
)

// Kind is the type tag of one traced event.
type Kind uint8

// Event kinds. The comment on each kind documents how the Event fields are
// used; unused fields are zero.
const (
	// EvMissLocal is a demand miss satisfied by the local node's memory.
	// Addr=block, Node=home, Dur=miss latency, Arg=invalidations sent.
	EvMissLocal Kind = iota
	// EvMissRemoteClean is a 2-hop miss satisfied by a remote home memory.
	EvMissRemoteClean
	// EvMissRemoteDirty is a 3-hop miss requiring an intervention at the
	// exclusive owner's cache.
	EvMissRemoteDirty
	// EvUpgrade is a write hit on a Shared line obtaining ownership.
	// Addr=block, Node=home, Dur=latency, Arg=invalidations sent.
	EvUpgrade
	// EvPrefetch is a software prefetch issue. Addr=block, Node=home,
	// Dur=fill latency (overlapped with execution, not stall).
	EvPrefetch
	// EvFetchOp is an uncached at-memory fetch&op. Addr=block, Node=home,
	// Dur=operation latency.
	EvFetchOp
	// EvWriteback is a dirty victim written back to its home.
	// Addr=block, Node=home.
	EvWriteback
	// EvInvalRecv is recorded on the victim processor's stream when its
	// cached copy is invalidated. Addr=block, Node=requesting processor.
	EvInvalRecv
	// EvIntervention is recorded on the previous exclusive owner's stream
	// when the home forwards an intervention to it. Addr=block,
	// Node=requesting processor, Arg=1 for a write (ownership transfer),
	// 0 for a read (downgrade to Shared).
	EvIntervention
	// EvPageMigration is a dynamic page migration triggered by this
	// processor's remote miss. Addr=page, Node=new home, Arg=old home.
	EvPageMigration
	// EvSyncWait is one wait episode at a barrier (or other blocking
	// primitive). Addr=sync object id, Time=arrival, Dur=wait span.
	EvSyncWait
	// EvSyncAcquire is one contended lock acquisition. Addr=sync object
	// id, Time=request, Dur=request-to-grant span.
	EvSyncAcquire
	// EvHubQueue is a transaction queueing behind earlier traffic at a Hub.
	// Node=hub (node) id, Dur=queueing delay, Time=arrival.
	EvHubQueue
	// EvMemQueue is queueing at a memory/directory controller.
	EvMemQueue
	// EvRouterQueue is queueing at a router endpoint.
	EvRouterQueue
	// EvMetaQueue is queueing at a metarouter.
	EvMetaQueue

	numKinds
)

// kindNames are the stable display names used by the exporters; tests pin
// them, so renaming a kind is a format change.
var kindNames = [numKinds]string{
	EvMissLocal:       "miss local",
	EvMissRemoteClean: "miss remote-clean",
	EvMissRemoteDirty: "miss remote-dirty",
	EvUpgrade:         "upgrade",
	EvPrefetch:        "prefetch",
	EvFetchOp:         "fetch&op",
	EvWriteback:       "writeback",
	EvInvalRecv:       "inval recv",
	EvIntervention:    "intervention",
	EvPageMigration:   "page migration",
	EvSyncWait:        "sync wait",
	EvSyncAcquire:     "lock acquire",
	EvHubQueue:        "hub queue",
	EvMemQueue:        "mem queue",
	EvRouterQueue:     "router queue",
	EvMetaQueue:       "meta queue",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "Kind(" + strconv.Itoa(int(k)) + ")"
}

// Event is one traced machine event. It is a fixed-size value with no
// pointers, so a ring of Events costs one allocation for the whole run.
type Event struct {
	// Time is the virtual time the event began (miss issue, wait arrival,
	// queue entry).
	Time sim.Time
	// Dur is the event's duration (miss latency, wait span, queueing
	// delay); zero for instantaneous events.
	Dur sim.Time
	// Addr identifies the subject: a block number, a page number, or a
	// sync object id, depending on Kind.
	Addr uint64
	// Arg is a kind-specific payload (invalidation count, old home, ...).
	Arg int32
	// Node is a kind-specific node/resource/processor id.
	Node int16
	// Kind tags the event type.
	Kind Kind
}
