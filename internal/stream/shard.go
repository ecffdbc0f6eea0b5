package stream

import (
	"sync"

	"moas/internal/arena"
	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/epilog"
	"moas/internal/kernel"
	"moas/internal/rib"
	"moas/internal/supervise"
)

// PeerKey identifies a collector peer the way BGP4MP records do: peer
// address plus peer AS.
type PeerKey struct {
	IP [16]byte
	AS bgp.ASN
}

// op is one route-level change dispatched to a shard.
type op struct {
	day      int
	withdraw bool
	peer     PeerKey
	prefix   bgp.Prefix
	attrs    *bgp.Attrs // nil on withdraw; shared and immutable once dispatched
}

// batch is the unit a shard consumes: a run of ops, a day-close barrier, or
// a sync fence.
type batch struct {
	ops      []op
	closeDay int             // valid when ops == nil and sync == nil
	sync     *sync.WaitGroup // non-nil: fence — signal and continue
}

// routeNode is one (peer → attrs) entry of a prefix's live route table.
// Nodes live in the shard's chunked arena and chain through indices, so
// the per-prefix table is a linked list with no per-prefix heap object:
// route flap — withdraw-then-reannounce, the dominant churn on a real
// feed — recycles nodes through the shard free list instead of
// reallocating maps.
// Peer counts per prefix are small (a collector has tens of peers), so the
// linear list walk beats a map on both allocation and locality.
type routeNode struct {
	peer  PeerKey
	attrs *bgp.Attrs
	next  int32 // arena index of the next route for the prefix; -1 ends
}

// shard owns a hash partition of the prefix space: the per-peer route
// state and a kernel instance holding that partition's conflict episodes.
// Its mutex is one stripe of the engine's read-optimized index: the
// worker goroutine write-locks per batch, live queries read-lock per
// shard.
type shard struct {
	mu sync.RWMutex
	// k resolves each prefix to its slot, which holds both the prefix's
	// conflict state and the head of its route list in nodes: the
	// shard's one per-prefix table.
	k        *kernel.Kernel
	nodes    arena.Chunked[routeNode]
	freeNode int32 // head of the recycled-node list, -1 when empty

	scratch []rib.PeerRoute
	// origScratch is the reusable target of the per-change origin-set
	// recompute; the kernel copies it only on an actual transition, so
	// steady-state churn is alloc-free.
	origScratch []bgp.ASN
	notify      func(Event) // engine Config.OnEvent; called outside the lock
	notifyBuf   []Event     // events emitted by the batch being applied
	recycle     func([]op)  // returns drained batch slices to the engine pool
	ch          chan batch

	// epLog receives episode records outside the lock; epBuf stages the
	// batch's records and epASN is the reused backing their borrowed
	// origin sets are copied into, so a batch with no lifecycle events —
	// the warm path — costs the episode log nothing.
	epLog *epilog.Log
	epBuf []epilog.Episode
	epASN []bgp.ASN

	// Panic containment: onFail reports the first contained panic to
	// the engine; dead (worker-goroutine-local) flips the shard into
	// drain mode, where it keeps servicing sync fences and recycling
	// batches — so producers never block — but applies nothing.
	onFail func(error)
	dead   bool
}

func newShard(queueDepth, historyCap int, keepLog bool, notify func(Event), recycle func([]op), epLog *epilog.Log) *shard {
	s := &shard{
		freeNode: -1,
		notify:   notify,
		recycle:  recycle,
		ch:       make(chan batch, queueDepth),
		epLog:    epLog,
	}
	opts := kernel.Options{HistoryCap: historyCap, KeepLog: keepLog}
	if epLog != nil {
		opts.OnEpisode = s.bufferEpisode
	}
	s.k = kernel.New(opts)
	return s
}

// bufferEpisode stages one kernel episode for the post-lock flush. The
// kernel's Origins are only valid during this callback, so they are
// copied into the shard's reused backing; the three-index slice keeps a
// later epASN append from writing through an already-staged record.
func (s *shard) bufferEpisode(ep kernel.Episode) {
	off := len(s.epASN)
	s.epASN = append(s.epASN, ep.Origins...)
	s.epBuf = append(s.epBuf, epilog.Episode{
		Prefix:  ep.Prefix,
		Origins: s.epASN[off:len(s.epASN):len(s.epASN)],
		Class:   ep.Class,
		Seq:     ep.Seq,
		Start:   ep.Start,
		End:     ep.End,
		Open:    ep.Open,
	})
}

// run is the shard worker loop; it exits when the channel closes.
func (s *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for b := range s.ch {
		s.process(b)
	}
}

// process handles one batch with panic containment: a panic anywhere
// in the apply path (kernel, episode log, event subscriber) is
// captured as the engine's failure and kills only this shard, which
// then drains — sync fences still release, batches still recycle —
// so the dispatcher, Sync and Close never deadlock while the owning
// scenario transitions to failed.
func (s *shard) process(b batch) {
	defer func() {
		if v := recover(); v != nil {
			s.dead = true
			if s.onFail != nil {
				s.onFail(supervise.AsError("shard worker", v))
			}
		}
	}()
	if s.dead {
		switch {
		case b.sync != nil:
			b.sync.Done()
		case b.ops != nil:
			if s.recycle != nil {
				s.recycle(b.ops)
			}
		}
		return
	}
	switch {
	case b.sync != nil:
		b.sync.Done()
	case b.ops == nil:
		s.closeDay(b.closeDay)
	default:
		s.apply(b.ops)
		if s.recycle != nil {
			s.recycle(b.ops)
		}
	}
}

// apply applies one batch of route ops under a single lock acquisition,
// then delivers the batch's lifecycle events to the engine's OnEvent
// subscriber outside the lock (so a subscriber may query the engine
// without deadlocking, and a slow one delays only this shard's feed, not
// its readers).
func (s *shard) apply(ops []op) {
	s.mu.Lock()
	locked := true
	// Release the lock if a panic unwinds mid-apply, so API readers
	// on a failed engine don't hang on a mutex a dead worker holds.
	defer func() {
		if locked {
			s.mu.Unlock()
		}
	}()
	for i := range ops {
		s.applyOne(&ops[i])
	}
	notes := s.notifyBuf
	eps := s.epBuf
	locked = false
	s.mu.Unlock()
	// Episode appends land before the event notifications, so an SSE
	// subscriber reacting to an event finds the log at least as fresh.
	// Append errors degrade inside the log (surfaced by its Health);
	// the engine keeps streaming.
	for i := range eps {
		_ = s.epLog.Append(eps[i])
	}
	for i := range notes {
		s.notify(notes[i])
	}
	s.notifyBuf = s.notifyBuf[:0]
	s.epBuf = s.epBuf[:0]
	s.epASN = s.epASN[:0]
}

// allocNode returns a free node index, recycling before growing the arena.
func (s *shard) allocNode() int32 {
	if i := s.freeNode; i >= 0 {
		s.freeNode = s.nodes.At(i).next
		return i
	}
	return s.nodes.Alloc()
}

// applyOne resolves the op's prefix to its kernel slot once and runs the
// route change and the reassessment against that slot. A fully withdrawn
// prefix's slot is recycled by the kernel unless it keeps a lifecycle.
func (s *shard) applyOne(o *op) {
	var i, head int32
	if o.withdraw {
		var ok bool
		if i, ok = s.k.Lookup(o.prefix); !ok {
			return
		}
		var removed bool
		if head, removed = s.removeRoute(s.k.Head(i), o.peer); !removed {
			return
		}
	} else {
		i = s.k.Slot(o.prefix)
		var changed bool
		if head, changed = s.upsertRoute(s.k.Head(i), o.peer, o.attrs); !changed {
			return
		}
	}
	s.k.SetHead(i, head)
	s.reassess(i, o.prefix, head, o.day)
}

// upsertRoute stores attrs as peer's route in the list at head, returning
// the (possibly new) head and whether anything changed.
func (s *shard) upsertRoute(head int32, peer PeerKey, attrs *bgp.Attrs) (int32, bool) {
	for i := head; i >= 0; i = s.nodes.At(i).next {
		n := s.nodes.At(i)
		if n.peer == peer {
			// Pointer equality first: the replay decode stage interns
			// attrs by wire bytes, so a re-announcement with unchanged
			// attributes — the overwhelmingly common case on a real feed —
			// carries the exact pointer already stored and never reaches
			// the deep comparison. Equal stays as the fallback for attrs
			// from other feeders (direct ApplyUpdate callers, checkpoint
			// restores).
			if n.attrs == attrs || n.attrs.Equal(attrs) {
				return head, false
			}
			n.attrs = attrs
			return head, true
		}
	}
	i := s.allocNode()
	*s.nodes.At(i) = routeNode{peer: peer, attrs: attrs, next: head}
	return i, true
}

// removeRoute unlinks peer's route from the list at head, returning the
// new head and whether a route was removed.
func (s *shard) removeRoute(head int32, peer PeerKey) (int32, bool) {
	prev := int32(-1)
	for i := head; i >= 0; i = s.nodes.At(i).next {
		n := s.nodes.At(i)
		if n.peer == peer {
			if prev < 0 {
				head = n.next
			} else {
				s.nodes.At(prev).next = n.next
			}
			*n = routeNode{next: s.freeNode}
			s.freeNode = i
			return head, true
		}
		prev = i
	}
	return head, false
}

// routeCount returns the length of the route list at head.
func (s *shard) routeCount(head int32) int {
	n := 0
	for i := head; i >= 0; i = s.nodes.At(i).next {
		n++
	}
	return n
}

// reassess recomputes the prefix's origin set and classification after a
// route change and drives the observation through the kernel, which emits
// the lifecycle event the change implies, if any. The recompute lands in
// the shard's reusable scratch; the kernel commits a fresh copy only when
// the set actually changed, so the common case — an update that does not
// flip the origin set — performs zero allocations
// (BenchmarkShardReassess's claim).
func (s *shard) reassess(slot int32, p bgp.Prefix, head int32, day int) {
	s.scratch = s.scratch[:0]
	for i := head; i >= 0; i = s.nodes.At(i).next {
		n := s.nodes.At(i)
		s.scratch = append(s.scratch, rib.PeerRoute{
			PeerAS: n.peer.AS,
			Route:  bgp.Route{Prefix: p, Attrs: n.attrs},
		})
	}
	// AppendOrigins and ClassifyRoutes are order-independent, so the list
	// order above cannot leak into events or the registry.
	s.origScratch, _ = rib.AppendOrigins(s.origScratch, s.scratch)
	var class core.Class
	if len(s.origScratch) >= 2 {
		class = core.ClassifyRoutes(s.scratch)
	}
	for _, ev := range s.k.ApplySlot(slot, kernel.Obs{Day: day, Prefix: p, Origins: s.origScratch, Class: class}) {
		if s.notify != nil {
			s.notifyBuf = append(s.notifyBuf, ev)
		}
	}
}

// closeDay records the day's active conflicts into the shard's kernel
// registry — the streaming analogue of the paper's daily table scan,
// costing O(active conflicts in shard) instead of O(table).
func (s *shard) closeDay(day int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.k.CloseDay(day)
}
