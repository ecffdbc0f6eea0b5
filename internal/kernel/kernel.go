// Package kernel is the single authoritative implementation of the
// paper's conflict-episode semantics: a pure, single-threaded state
// machine that turns a sequence of per-prefix origin-set observations
// into conflict lifecycle events, open/closed episode records with
// durations, and the cross-day conflict registry behind Figures 1-6.
// Both detection paths drive it — the batch driver feeds it per-day
// table observations, the streaming engine feeds it per-update
// reassessments — so their equivalence holds at the kernel level
// instead of being re-derived per path. The kernel also carries a
// versioned snapshot codec (snapshot.go), which is what makes engine
// checkpoints and mid-archive resume possible.
package kernel

import (
	"sort"

	"moas/internal/arena"
	"moas/internal/bgp"
	"moas/internal/core"
)

// Span is one contiguous activation of a conflict: Start is the day the
// origin set first held two or more ASes, End the day an observation
// dissolved it. Open spans have no End yet. (analysis.Span aliases this
// type; the duration statistics live there.)
type Span struct {
	Start, End int
	Open       bool
}

// Len returns the span's length in observation days as of now: ended spans
// count [Start, End), open spans [Start, now]. A conflict that started and
// ended within one day counts 1, matching the registry's "lasting less
// than one day" convention.
func (s Span) Len(now int) int {
	if s.Open {
		return now - s.Start + 1
	}
	if s.End <= s.Start {
		return 1
	}
	return s.End - s.Start
}

// EventType enumerates conflict lifecycle transitions.
type EventType uint8

const (
	// EventConflictStart: the prefix's origin set grew to two or more ASes.
	EventConflictStart EventType = iota + 1
	// EventOriginChange: an active conflict's origin set changed while
	// keeping two or more ASes.
	EventOriginChange
	// EventClassChange: the origin set is unchanged but the observed paths
	// changed enough to reclassify the conflict.
	EventClassChange
	// EventConflictEnd: the origin set shrank below two ASes.
	EventConflictEnd
)

// String names the event type for logs and the JSON API.
func (t EventType) String() string {
	switch t {
	case EventConflictStart:
		return "conflict-start"
	case EventOriginChange:
		return "origin-change"
	case EventClassChange:
		return "class-change"
	case EventConflictEnd:
		return "conflict-end"
	}
	return "none"
}

// Event is one conflict lifecycle transition. For a given observation
// sequence the event stream per prefix is deterministic: observations of
// one prefix are applied in order, wherever they come from.
type Event struct {
	Type   EventType
	Day    int    // observation day of the triggering observation
	Seq    uint64 // per-prefix ordinal; orders one prefix's lifecycle
	Prefix bgp.Prefix

	// Origins and Class describe the state after the transition, the Prev
	// fields the state before it. Origins is empty after EventConflictEnd.
	Origins     []bgp.ASN
	PrevOrigins []bgp.ASN
	Class       core.Class
	PrevClass   core.Class
}

// Obs is one observation driven into the kernel: prefix p's assessed
// origin set and classification as of day Day. Callers assess routes
// however they store them (per-peer Adj-RIB-In maps in streaming, episode
// advertisement sets in batch); the kernel owns everything downstream of
// the assessment. Origins must be ascending and may alias a caller
// scratch buffer — the kernel copies it only when committing a change.
// Class is meaningful when len(Origins) >= 2 and ignored otherwise. An
// empty origin set observes the prefix as absent/withdrawn.
type Obs struct {
	Day     int
	Prefix  bgp.Prefix
	Origins []bgp.ASN
	Class   core.Class
}

// slot is one tracked prefix: its assessed conflict state, its place in
// the active set and the caller-owned route-list head, in one 96-byte
// element of the kernel's chunked slot table, so an op touches one table
// entry for all three. The fields the eventless path reads lead; the
// prefix key and the lifecycle fields follow.
type slot struct {
	origins []bgp.ASN // current origin set (ascending); in conflict iff len >= 2
	head    int32     // caller-owned route-list head; -1 when none (see Head)
	// activeAt is the slot's index in Kernel.active, -1 when not in
	// conflict.
	activeAt int32
	// escaped marks origins' backing array as aliased by an emitted event
	// (Origins of the event that committed it). While false the backing
	// is exclusively the kernel's and may be overwritten in place, which
	// is what makes eventless origin churn — single-origin route flap,
	// the bulk of a real feed — allocation-free.
	escaped bool
	class   core.Class
	// tracked reports that the kernel holds a state for the prefix (see
	// State). An untracked slot has no origins, no lifecycle and an
	// unescaped origins backing; it lives on only while the caller holds
	// a route list on it.
	tracked bool
	prefix  bgp.Prefix
	seq     uint64 // lifecycle event ordinal for this prefix
	since   int    // day the current activation started
	history []Event
}

// Episode is one conflict activation as reported to Options.OnEpisode.
// Closed episodes span [Start, End] observation days inclusive; an open
// episode restates the still-running activation after its latest
// lifecycle event, with End holding that event's day. Seq is the
// per-prefix ordinal of the reporting event, which is what lets a
// durable consumer fold re-emitted records (checkpoint resume replays
// the same events with the same Seqs) back into one episode.
type Episode struct {
	Prefix  bgp.Prefix
	Origins []bgp.ASN // borrowed; valid only during the callback
	Class   core.Class
	Seq     uint64
	Start   int
	End     int
	Open    bool
}

// Options parameterizes a kernel.
type Options struct {
	// HistoryCap caps lifecycle events retained per prefix (0 = all).
	HistoryCap int
	// KeepLog retains the full event record behind Log().
	KeepLog bool
	// OnEpisode, when set, observes the episode effect of every emitted
	// lifecycle event: a conflict-end closes the activation, any other
	// event (re)states it as open. The Episode's Origins alias kernel
	// state and are only valid during the call. The callback must not
	// call back into the kernel.
	OnEpisode func(Episode)
}

// Kernel is the conflict-episode state machine. It is deliberately
// single-threaded: concurrent users (the sharded streaming engine) own
// one kernel per shard and serialize access through the shard lock.
//
// Every tracked prefix lives in a dense slot: index resolves a prefix to
// its slot with one hash probe, and everything per-prefix — the state,
// its active flag, the caller's route-list head — is slot-indexed in a
// chunked table that grows without copying. A slot is recycled once its
// prefix has no routes and no lifecycle worth keeping, so the table is
// bounded by live plus conflicted prefixes.
type Kernel struct {
	opts   Options
	index  map[bgp.Prefix]int32
	slots  arena.Chunked[slot]
	free   []int32 // recycled slots, reused before the table grows
	active []int32 // slots in conflict, in no particular order
	reg    *core.Registry
	events int     // lifecycle events emitted
	log    []Event // full event record, kept only when opts.KeepLog
	// closedSpans accumulates ended activations incrementally so duration
	// stats never rescan the event log; open spans are derived from the
	// active set (slot.since) on demand.
	closedSpans []Span
	evBuf       []Event   // Apply's reused return buffer
	asnArena    []bgp.ASN // chunked backing for unescaped origin commits
}

// New returns an empty kernel.
func New(opts Options) *Kernel {
	return &Kernel{
		opts:  opts,
		index: make(map[bgp.Prefix]int32),
		reg:   core.NewRegistry(),
	}
}

// Lookup returns p's slot, if the kernel holds one: p has a state or a
// caller-held route list.
func (k *Kernel) Lookup(p bgp.Prefix) (int32, bool) {
	i, ok := k.index[p]
	return i, ok
}

// Slot returns p's slot, taking an empty one when p has none. The caller
// must then set a route-list head on it (SetHead) or drive an
// observation through it (ApplySlot), either of which decides whether
// the slot is kept.
func (k *Kernel) Slot(p bgp.Prefix) int32 {
	if i, ok := k.index[p]; ok {
		return i
	}
	return k.newSlot(p)
}

// Head returns slot i's route-list head: an index the caller owns and
// the kernel only stores, -1 when the caller holds no routes for the
// prefix.
func (k *Kernel) Head(i int32) int32 { return k.slots.At(i).head }

// SetHead stores slot i's route-list head. A slot whose head is -1 is
// recycled by the next ApplySlot that leaves it without a state.
func (k *Kernel) SetHead(i, head int32) { k.slots.At(i).head = head }

// WalkHeads visits every slot holding a route list, in slot order.
func (k *Kernel) WalkHeads(fn func(p bgp.Prefix, head int32)) {
	for i := int32(0); i < int32(k.slots.Len()); i++ {
		if st := k.slots.At(i); st.head >= 0 {
			fn(st.prefix, st.head)
		}
	}
}

// newSlot takes a recycled slot or carves a fresh one and maps p to it.
// A recycled slot keeps its origins backing, which is unescaped (see
// slot.tracked).
func (k *Kernel) newSlot(p bgp.Prefix) int32 {
	var i int32
	if n := len(k.free); n > 0 {
		i = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		i = k.slots.Alloc()
	}
	st := k.slots.At(i)
	*st = slot{origins: st.origins[:0], head: -1, activeAt: -1, prefix: p}
	k.index[p] = i
	return i
}

// release recycles slot i once nothing holds it: no state and no routes.
func (k *Kernel) release(i int32, st *slot) {
	if st.tracked || st.head >= 0 {
		return
	}
	delete(k.index, st.prefix)
	k.free = append(k.free, i)
}

// untrack drops slot i's state — fully withdrawn, no lifecycle worth
// keeping — and recycles the slot unless the caller still holds routes
// on it. The origins backing is unescaped here: the commit that emptied
// it either reused an unescaped backing or committed nil.
func (k *Kernel) untrack(i int32, st *slot) {
	*st = slot{origins: st.origins[:0], head: st.head, activeAt: -1, prefix: st.prefix}
	k.release(i, st)
}

// Apply drives one observation through the state machine and returns the
// lifecycle events it implies (zero or one; the slice is reused by the
// next Apply call, so callers retain events by copying them out). An
// observation that changes neither the origin set nor the class performs
// no allocation — the streaming hot path's claim (BenchmarkShardReassess).
// Apply resolves the prefix's slot and runs ApplySlot, the one
// transition path every caller shares.
func (k *Kernel) Apply(o Obs) []Event {
	i, ok := k.index[o.Prefix]
	if !ok {
		if len(o.Origins) == 0 {
			return nil // never tracked and observed absent: nothing to do
		}
		i = k.newSlot(o.Prefix)
	}
	return k.ApplySlot(i, o)
}

// ApplySlot is Apply on an already resolved slot: i must be o.Prefix's
// slot (Slot or Lookup). Callers that keep per-prefix data of their own
// in the slot (a route-list head) resolve the prefix once and drive both
// through the same slot.
func (k *Kernel) ApplySlot(i int32, o Obs) []Event {
	st := k.slots.At(i)
	origins := o.Origins
	class := o.Class
	if len(origins) < 2 {
		class = core.ClassNone
	}
	// An untracked slot has no origins and ClassNone, so it compares as
	// the absent state.
	prevOrigins, prevClass := st.origins, st.class
	sameSet := asnsEqual(origins, prevOrigins)
	if sameSet && class == prevClass {
		k.release(i, st)
		return nil
	}
	// Past the early return an untracked slot observes a non-empty set.
	st.tracked = true

	// The lifecycle transition is decided before the commit so the commit
	// can reuse st.origins' backing in place for the eventless case; an
	// emitted event aliases both the old set (PrevOrigins) and the new
	// (Origins), so it forces a fresh copy.
	was, now := len(prevOrigins) >= 2, len(origins) >= 2
	var evType EventType
	switch {
	case !was && now:
		evType = EventConflictStart
	case was && !now:
		evType = EventConflictEnd
	case was && now && !sameSet:
		evType = EventOriginChange
	case was && now && class != prevClass:
		evType = EventClassChange
	}

	// Commit: st.origins and emitted events must not alias the caller's
	// scratch, which the next assessment overwrites.
	var committed []bgp.ASN
	if evType == 0 && !st.escaped && cap(st.origins) >= len(origins) {
		committed = append(st.origins[:0], origins...)
	} else if len(origins) > 0 {
		if evType == 0 && !st.escaped {
			// Eventless commit outgrowing its backing — in practice a
			// fresh state's first single-origin set. Nothing escapes it,
			// so it can come from the chunked arena; it stays with the
			// slot (and the prefixes that recycle it) from here on.
			committed = append(k.allocOrigins(len(origins)), origins...)
		} else {
			committed = append(make([]bgp.ASN, 0, len(origins)), origins...)
		}
	}
	ev := Event{Type: evType, Day: o.Day, Prefix: o.Prefix, Origins: committed, PrevOrigins: prevOrigins, Class: class, PrevClass: prevClass}
	switch evType {
	case EventConflictStart:
		st.since = o.Day
		st.activeAt = int32(len(k.active))
		k.active = append(k.active, i)
	case EventConflictEnd:
		ev.Origins = nil
		k.deactivate(st)
		k.closedSpans = append(k.closedSpans, Span{Start: st.since, End: o.Day})
	}
	st.origins, st.class = committed, class
	// An end event's committed set (at most one origin) is not carried by
	// the event, so its backing stays exclusively the kernel's.
	st.escaped = evType != 0 && evType != EventConflictEnd && len(committed) > 0
	// Fully withdrawn with no lifecycle worth keeping: the state goes.
	// Organically seq == 0 implies no event here, but a hostile snapshot
	// can restore >=2 origins with Seq 0, making this very observation
	// emit a conflict-end; that event is still emitted, and the state it
	// was recorded into is dropped after it.
	drop := len(st.origins) == 0 && st.seq == 0
	if evType == 0 {
		if drop {
			k.untrack(i, st)
		}
		return nil // sub-conflict origin churn (e.g. one origin to another)
	}
	k.emit(st, &ev)
	if k.opts.OnEpisode != nil {
		k.fireEpisode(st, &ev, prevOrigins, prevClass)
	}
	if drop {
		k.untrack(i, st)
	}
	k.evBuf = append(k.evBuf[:0], ev)
	return k.evBuf
}

// deactivate removes st from the active set by moving the last active
// slot into its place.
func (k *Kernel) deactivate(st *slot) {
	j, n := st.activeAt, len(k.active)-1
	last := k.active[n]
	k.active[j] = last
	k.slots.At(last).activeAt = j
	k.active = k.active[:n]
	st.activeAt = -1
}

// fireEpisode reports the observation's episode effect. An end event
// closes the activation: it was last active at the close of the day
// before the dissolving observation (clamped so a same-day start+end
// still spans its one day), described by the pre-transition origin set
// and class. Every other lifecycle event restates the activation as
// open through the event's own day with the post-transition set. The
// event's Seq carries over, giving durable consumers a per-prefix total
// order shared with the event stream.
func (k *Kernel) fireEpisode(st *slot, ev *Event, prevOrigins []bgp.ASN, prevClass core.Class) {
	ep := Episode{Prefix: ev.Prefix, Seq: ev.Seq, Start: st.since, Open: ev.Type != EventConflictEnd}
	if ev.Type == EventConflictEnd {
		ep.Origins, ep.Class = prevOrigins, prevClass
		ep.End = ev.Day - 1
		if ep.End < ep.Start {
			ep.End = ep.Start
		}
	} else {
		ep.Origins, ep.Class = st.origins, st.class
		ep.End = ev.Day
	}
	k.opts.OnEpisode(ep)
}

// ArenaStates returns the number of slots carved from the kernel's slot
// table over its lifetime — slots in use plus the recycled free list,
// i.e. the table's retained footprint in per-prefix states.
func (k *Kernel) ArenaStates() int { return k.slots.Len() }

// Slots returns the number of slots in use: prefixes with a state or a
// caller-held route list.
func (k *Kernel) Slots() int { return len(k.index) }

// allocOrigins reserves an n-capacity, zero-length origin slice from the
// chunked arena. The full-capacity bound keeps a later in-place reuse
// from appending into a neighbor's reservation.
func (k *Kernel) allocOrigins(n int) []bgp.ASN {
	if len(k.asnArena)+n > cap(k.asnArena) {
		k.asnArena = make([]bgp.ASN, 0, max(1024, n))
	}
	off := len(k.asnArena)
	k.asnArena = k.asnArena[:off+n]
	return k.asnArena[off : off : off+n]
}

func (k *Kernel) emit(st *slot, ev *Event) {
	st.seq++
	ev.Seq = st.seq
	if k.opts.HistoryCap > 0 && len(st.history) >= k.opts.HistoryCap {
		copy(st.history, st.history[1:])
		st.history[len(st.history)-1] = *ev
	} else {
		st.history = append(st.history, *ev)
	}
	k.events++
	if k.opts.KeepLog {
		k.log = append(k.log, *ev)
	}
}

// CloseDay records the day's active conflicts into the registry — the
// kernel-level form of the paper's daily table scan, costing O(active
// conflicts) instead of O(table). Both adapters call it once per observed
// day, which is what makes their registries identical.
func (k *Kernel) CloseDay(day int) {
	for _, i := range k.active {
		st := k.slots.At(i)
		k.reg.Record(day, st.prefix, st.origins, st.class)
	}
}

// Registry exposes the cross-day conflict records (paper durations,
// classes, origin sets). Callers must not mutate it.
func (k *Kernel) Registry() *core.Registry { return k.reg }

// ActiveCount returns the number of prefixes currently in conflict.
func (k *Kernel) ActiveCount() int { return len(k.active) }

// EventCount returns the number of lifecycle events emitted.
func (k *Kernel) EventCount() int { return k.events }

// Log returns the retained event record (nil unless Options.KeepLog).
// The slice is the kernel's own; callers must copy before mutating.
func (k *Kernel) Log() []Event { return k.log }

// View is one prefix's assessed conflict state as exposed to queries.
// Slices are borrowed from kernel state: copy before the next Apply.
type View struct {
	Origins []bgp.ASN
	Class   core.Class
	Since   int // day the current activation started (active prefixes)
	Seq     uint64
	Active  bool
	History []Event
}

// State reports one prefix's current assessed state. ok is false when the
// kernel holds no state for the prefix (never observed, or withdrawn with
// no lifecycle).
func (k *Kernel) State(p bgp.Prefix) (View, bool) {
	i, ok := k.index[p]
	if !ok {
		return View{}, false
	}
	st := k.slots.At(i)
	if !st.tracked {
		return View{}, false
	}
	return st.view(), true
}

func (st *slot) view() View {
	return View{
		Origins: st.origins,
		Class:   st.class,
		Since:   st.since,
		Seq:     st.seq,
		Active:  st.activeAt >= 0,
		History: st.history,
	}
}

// WalkActive visits every active conflict; iteration order is undefined.
// The View's slices are borrowed (see State). Return false to stop.
// The callback must not call back into the kernel's mutating methods.
func (k *Kernel) WalkActive(fn func(p bgp.Prefix, v View) bool) {
	for _, i := range k.active {
		st := k.slots.At(i)
		if !fn(st.prefix, st.view()) {
			return
		}
	}
}

// AppendSpans appends every activation span — closed ones accumulated at
// event time, open ones derived from the active set — to dst.
func (k *Kernel) AppendSpans(dst []Span) []Span {
	dst = append(dst, k.closedSpans...)
	for _, i := range k.active {
		dst = append(dst, Span{Start: k.slots.At(i).since, Open: true})
	}
	return dst
}

// SortEvents orders events canonically: (day, prefix, per-prefix seq).
// For a given input stream this order is deterministic regardless of how
// observations were partitioned across kernels.
func SortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.Day != b.Day {
			return a.Day < b.Day
		}
		if c := a.Prefix.Compare(b.Prefix); c != 0 {
			return c < 0
		}
		return a.Seq < b.Seq
	})
}

// asnsEqual reports whether two ascending origin sets are identical.
func asnsEqual(a, b []bgp.ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
