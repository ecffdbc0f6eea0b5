package kernel

import (
	"cmp"
	"fmt"
	"slices"

	"moas/internal/bgp"
	"moas/internal/core"
)

// SnapshotVersion is the current snapshot format version. Decoders reject
// snapshots from a different major format; bump it on incompatible
// changes to the wire structs below.
const SnapshotVersion = 1

// Snapshot is the serializable image of a kernel: every tracked prefix
// state, the cross-day conflict registry, the closed activation spans and
// the event accounting. It is plain typed data: AppendSnapshotBinary is
// its wire form, its JSON rendering (prefixes as "addr/len" text) is
// what the HTTP checkpoint payload carries, and it is prefix-disjoint
// mergeable (Merge), which is how the sharded engine composes one
// engine-wide snapshot out of its per-shard kernels.
type Snapshot struct {
	Version int `json:"version"`
	// Prefixes holds one entry per tracked prefix, sorted by prefix.
	Prefixes []PrefixSnap `json:"prefixes"`
	// Conflicts is the registry image, sorted by prefix.
	Conflicts []ConflictSnap `json:"conflicts"`
	// ClosedSpans are the ended activation spans (order irrelevant).
	ClosedSpans []SpanSnap `json:"closed_spans,omitempty"`
	// Events is the lifecycle-event count emitted so far.
	Events int `json:"events"`
	// Log is the retained global event record (present only when the
	// kernel ran with Options.KeepLog), in canonical order.
	Log []EventSnap `json:"log,omitempty"`
}

// PrefixSnap is one prefix's serialized state. Class values are the
// core.Class constants, which are version-stable by construction.
type PrefixSnap struct {
	Prefix  bgp.Prefix  `json:"prefix"`
	Origins []bgp.ASN   `json:"origins,omitempty"`
	Class   uint8       `json:"class,omitempty"`
	Seq     uint64      `json:"seq,omitempty"`
	Since   int         `json:"since,omitempty"`
	History []EventSnap `json:"history,omitempty"`
}

// ConflictSnap is one registry record's serialized form.
type ConflictSnap struct {
	Prefix       bgp.Prefix `json:"prefix"`
	FirstDay     int        `json:"first_day"`
	LastDay      int        `json:"last_day"`
	DaysObserved int        `json:"days_observed"`
	OriginsEver  []bgp.ASN  `json:"origins_ever"`
	ClassDays    []int      `json:"class_days"`
}

// SpanSnap is one closed activation span.
type SpanSnap struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// EventSnap is one lifecycle event's serialized form.
type EventSnap struct {
	Type        uint8      `json:"type"`
	Day         int        `json:"day"`
	Seq         uint64     `json:"seq"`
	Prefix      bgp.Prefix `json:"prefix"`
	Origins     []bgp.ASN  `json:"origins,omitempty"`
	PrevOrigins []bgp.ASN  `json:"prev_origins,omitempty"`
	Class       uint8      `json:"class,omitempty"`
	PrevClass   uint8      `json:"prev_class,omitempty"`
}

func eventToSnap(ev *Event) EventSnap {
	return EventSnap{
		Type:        uint8(ev.Type),
		Day:         ev.Day,
		Seq:         ev.Seq,
		Prefix:      ev.Prefix,
		Origins:     ev.Origins,
		PrevOrigins: ev.PrevOrigins,
		Class:       uint8(ev.Class),
		PrevClass:   uint8(ev.PrevClass),
	}
}

// validClass bounds snapshot class bytes: anything past the known
// classes would index-panic ClassDays/ByClass accumulators downstream,
// so restore rejects it instead of deferring the crash.
func validClass(c uint8) error {
	if int(c) >= core.NumClasses {
		return fmt.Errorf("kernel: snapshot class %d, want < %d", c, core.NumClasses)
	}
	return nil
}

// validPrefix rejects the zero Prefix — what a JSON snapshot entry that
// omits "prefix" decodes to.
func validPrefix(p bgp.Prefix, what string) error {
	if !p.IsValid() {
		return fmt.Errorf("kernel: snapshot %s without a valid prefix", what)
	}
	return nil
}

func snapToEvent(s *EventSnap) (Event, error) {
	if err := validPrefix(s.Prefix, "event"); err != nil {
		return Event{}, err
	}
	if err := validClass(s.Class); err != nil {
		return Event{}, err
	}
	if err := validClass(s.PrevClass); err != nil {
		return Event{}, err
	}
	return Event{
		Type:        EventType(s.Type),
		Day:         s.Day,
		Seq:         s.Seq,
		Prefix:      s.Prefix,
		Origins:     s.Origins,
		PrevOrigins: s.PrevOrigins,
		Class:       core.Class(s.Class),
		PrevClass:   core.Class(s.PrevClass),
	}, nil
}

// tail returns the last n elements of s with capacity clipped to them,
// or nil when n is 0 — the form a field carved out of a shared backing
// array needs to compare equal to a decoded one.
func tail[T any](s []T, n int) []T {
	if n == 0 {
		return nil
	}
	return s[len(s)-n : len(s) : len(s)]
}

// Snapshot serializes the kernel's complete state. The result shares no
// memory with the kernel (event slices are copied), so it stays valid
// while the kernel keeps running. It walks the dense slot table, then
// sorts the tracked prefixes; every state's origins and history are
// carved out of one backing array each, so a snapshot costs a handful of
// allocations rather than several per prefix.
func (k *Kernel) Snapshot() *Snapshot {
	s := &Snapshot{Version: SnapshotVersion, Events: k.events}
	type keyed struct {
		p bgp.Prefix
		i int32
	}
	keys := make([]keyed, 0, len(k.index))
	nOrigins, nHistory := 0, 0
	for i := int32(0); i < int32(k.slots.Len()); i++ {
		if st := k.slots.At(i); st.tracked {
			keys = append(keys, keyed{st.prefix, i})
			nOrigins += len(st.origins)
			nHistory += len(st.history)
		}
	}
	slices.SortFunc(keys, func(a, b keyed) int { return a.p.Compare(b.p) })
	origins := make([]bgp.ASN, 0, nOrigins)
	history := make([]EventSnap, 0, nHistory)
	s.Prefixes = slices.Grow(s.Prefixes, len(keys))
	for _, key := range keys {
		st := k.slots.At(key.i)
		origins = append(origins, st.origins...)
		for i := range st.history {
			history = append(history, eventToSnap(&st.history[i]))
		}
		s.Prefixes = append(s.Prefixes, PrefixSnap{
			Prefix:  key.p,
			Origins: tail(origins, len(st.origins)),
			Class:   uint8(st.class),
			Seq:     st.seq,
			Since:   st.since,
			History: tail(history, len(st.history)),
		})
	}
	s.Conflicts = slices.Grow(s.Conflicts, k.reg.Len())
	for _, c := range k.reg.Conflicts() {
		s.Conflicts = append(s.Conflicts, ConflictSnap{
			Prefix:       c.Prefix,
			FirstDay:     c.FirstDay,
			LastDay:      c.LastDay,
			DaysObserved: c.DaysObserved,
			OriginsEver:  append([]bgp.ASN(nil), c.OriginsEver...),
			ClassDays:    append([]int(nil), c.ClassDays[:]...),
		})
	}
	for _, sp := range k.closedSpans {
		s.ClosedSpans = append(s.ClosedSpans, SpanSnap{Start: sp.Start, End: sp.End})
	}
	s.Log = slices.Grow(s.Log, len(k.log))
	for i := range k.log {
		s.Log = append(s.Log, eventToSnap(&k.log[i]))
	}
	return s
}

// Restore loads a snapshot into an empty kernel (one fresh from New),
// sizing the prefix index and slot table from the snapshot's prefix
// count. Histories longer than the kernel's HistoryCap are truncated to
// their most recent events. Active conflicts are re-derived from
// origin-set cardinality, the invariant the state machine maintains. Snapshots
// arrive from outside the process, so a prefix listed twice — in
// Prefixes or in Conflicts — is an error rather than a silent overwrite.
func (k *Kernel) Restore(s *Snapshot) error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("kernel: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	if len(k.index) != 0 || k.reg.Len() != 0 || k.events != 0 {
		return fmt.Errorf("kernel: restore into non-empty kernel")
	}
	k.index = make(map[bgp.Prefix]int32, len(s.Prefixes))
	k.slots.Grow(len(s.Prefixes))
	for i := range s.Prefixes {
		ps := &s.Prefixes[i]
		p := ps.Prefix
		if err := validPrefix(p, "state"); err != nil {
			return err
		}
		if _, dup := k.index[p]; dup {
			return fmt.Errorf("kernel: snapshot lists prefix %v twice", p)
		}
		if err := validClass(ps.Class); err != nil {
			return fmt.Errorf("kernel: snapshot prefix %v: %w", p, err)
		}
		i := k.newSlot(p)
		st := k.slots.At(i)
		st.tracked = true
		st.origins = append([]bgp.ASN(nil), ps.Origins...)
		st.class = core.Class(ps.Class)
		st.seq = ps.Seq
		st.since = ps.Since
		hist := ps.History
		if k.opts.HistoryCap > 0 && len(hist) > k.opts.HistoryCap {
			hist = hist[len(hist)-k.opts.HistoryCap:]
		}
		st.history = slices.Grow(st.history, len(hist))
		for j := range hist {
			ev, err := snapToEvent(&hist[j])
			if err != nil {
				return err
			}
			st.history = append(st.history, ev)
		}
		if len(st.origins) >= 2 {
			st.activeAt = int32(len(k.active))
			k.active = append(k.active, i)
		}
	}
	for i := range s.Conflicts {
		cs := &s.Conflicts[i]
		if err := validPrefix(cs.Prefix, "conflict"); err != nil {
			return err
		}
		if _, dup := k.reg.Get(cs.Prefix); dup {
			return fmt.Errorf("kernel: snapshot lists conflict %v twice", cs.Prefix)
		}
		c := &core.Conflict{
			Prefix:       cs.Prefix,
			FirstDay:     cs.FirstDay,
			LastDay:      cs.LastDay,
			DaysObserved: cs.DaysObserved,
			OriginsEver:  append([]bgp.ASN(nil), cs.OriginsEver...),
		}
		if len(cs.ClassDays) > len(c.ClassDays) {
			return fmt.Errorf("kernel: snapshot conflict %v has %d classes, want <= %d",
				cs.Prefix, len(cs.ClassDays), len(c.ClassDays))
		}
		copy(c.ClassDays[:], cs.ClassDays)
		k.reg.Insert(c)
	}
	for _, sp := range s.ClosedSpans {
		k.closedSpans = append(k.closedSpans, Span{Start: sp.Start, End: sp.End})
	}
	k.events = s.Events
	if k.opts.KeepLog {
		k.log = slices.Grow(k.log, len(s.Log))
		for i := range s.Log {
			ev, err := snapToEvent(&s.Log[i])
			if err != nil {
				return err
			}
			k.log = append(k.log, ev)
		}
	}
	return nil
}

// Merge combines prefix-disjoint snapshots (the sharded engine's case,
// where each shard's kernel owns a hash partition of the prefix space)
// into one: prefix states and conflicts concatenate and sort by prefix,
// spans concatenate, event counts add, and logs merge into canonical
// order.
func Merge(parts []*Snapshot) *Snapshot {
	out := &Snapshot{Version: SnapshotVersion}
	for _, p := range parts {
		out.Prefixes = append(out.Prefixes, p.Prefixes...)
		out.Conflicts = append(out.Conflicts, p.Conflicts...)
		out.ClosedSpans = append(out.ClosedSpans, p.ClosedSpans...)
		out.Events += p.Events
		out.Log = append(out.Log, p.Log...)
	}
	slices.SortFunc(out.Prefixes, func(a, b PrefixSnap) int { return a.Prefix.Compare(b.Prefix) })
	slices.SortFunc(out.Conflicts, func(a, b ConflictSnap) int { return a.Prefix.Compare(b.Prefix) })
	// Span order is semantically irrelevant but shard-partition dependent;
	// sorting makes the merged snapshot — and so checkpoint bytes —
	// canonical across shard counts.
	slices.SortFunc(out.ClosedSpans, func(a, b SpanSnap) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End))
	})
	slices.SortFunc(out.Log, func(a, b EventSnap) int {
		return cmp.Or(cmp.Compare(a.Day, b.Day), a.Prefix.Compare(b.Prefix), cmp.Compare(a.Seq, b.Seq))
	})
	return out
}
