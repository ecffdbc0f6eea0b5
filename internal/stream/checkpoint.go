package stream

import (
	"bytes"
	"cmp"
	"encoding/hex"
	"fmt"
	"slices"

	"moas/internal/bgp"
	"moas/internal/kernel"
)

// CheckpointVersion is the engine checkpoint format version. It wraps
// kernel.SnapshotVersion; bump on incompatible changes to the structs
// below.
const CheckpointVersion = 1

// Checkpoint is the serializable image of a settled engine: the merged
// kernel snapshot (episodes, registry, spans, event log), the per-peer
// route tables the kernel's observations are assessed from, and the
// replay cursor (records consumed), so a replay can resume mid-archive.
// It is shard-count independent: restoring into an engine with a
// different Config.Shards redistributes state by prefix hash.
type Checkpoint struct {
	Version       int    `json:"version"`
	LastClosedDay int    `json:"last_closed_day"` // -1 before the first day close
	Messages      uint64 `json:"messages"`
	Ops           uint64 `json:"ops"`
	// Records counts MRT records fully consumed by the replay — the exact
	// skip count for ReplayOptions.Resume.
	Records uint64           `json:"records"`
	Kernel  *kernel.Snapshot `json:"kernel"`
	Routes  []PrefixRoutes   `json:"routes"`
}

// PrefixRoutes is one prefix's per-peer Adj-RIB-In image.
type PrefixRoutes struct {
	Prefix bgp.Prefix      `json:"prefix"`
	Routes []PeerRouteSnap `json:"routes"`
}

// PeerRouteSnap is one peer's route for a prefix. PeerIP is the raw
// 16-byte BGP4MP peer address (collector convention, not an IP-literal);
// Attrs is the path-attribute block in 4-octet-AS wire form. Routes
// carrying the same block may share one Attrs slice, so holders must
// treat both as read-only.
type PeerRouteSnap struct {
	PeerIP HexBytes `json:"peer_ip"`
	PeerAS bgp.ASN  `json:"peer_as"`
	Attrs  HexBytes `json:"attrs"`
}

// HexBytes is raw bytes whose JSON (text) form is lowercase hex: the
// HTTP checkpoint payload's rendering of peer addresses and attribute
// blocks.
type HexBytes []byte

// MarshalText implements encoding.TextMarshaler.
func (h HexBytes) MarshalText() ([]byte, error) { return hex.AppendEncode(nil, h), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (h *HexBytes) UnmarshalText(text []byte) error {
	b, err := hex.AppendDecode(nil, text)
	if err != nil {
		return err
	}
	*h = b
	return nil
}

// Checkpoint serializes the engine. The engine must be settled — parked
// after a Pause (Parked), fully replayed, or Closed — so that no batches
// are in flight; each shard is then read under its stripe lock. Each
// distinct interned attrs block is rendered to wire form once and shared
// by every route that carries it.
func (e *Engine) Checkpoint() *Checkpoint {
	ck := &Checkpoint{
		Version:       CheckpointVersion,
		LastClosedDay: int(e.lastClosed.Load()),
		Messages:      e.msgs.Load(),
		Ops:           e.ops.Load(),
		Records:       e.recs.Load(),
	}
	parts := make([]*kernel.Snapshot, 0, len(e.shards))
	wire := make(map[*bgp.Attrs]HexBytes)
	for _, s := range e.shards {
		s.mu.RLock()
		parts = append(parts, s.k.Snapshot())
		// One backing array each for the shard's route entries and peer
		// addresses; the arena length bounds the live route count.
		routes := make([]PeerRouteSnap, 0, len(s.nodes))
		ips := make([]byte, 0, 16*len(s.nodes))
		ck.Routes = slices.Grow(ck.Routes, len(s.prefixes))
		for p, head := range s.prefixes {
			start := len(routes)
			for i := head; i >= 0; i = s.nodes[i].next {
				n := &s.nodes[i]
				w, ok := wire[n.attrs]
				if !ok {
					w = n.attrs.AppendWireEx(nil, true)
					wire[n.attrs] = w
				}
				ips = append(ips, n.peer.IP[:]...)
				routes = append(routes, PeerRouteSnap{
					PeerIP: ips[len(ips)-16 : len(ips) : len(ips)],
					PeerAS: n.peer.AS,
					Attrs:  w,
				})
			}
			pr := PrefixRoutes{Prefix: p, Routes: routes[start:len(routes):len(routes)]}
			slices.SortFunc(pr.Routes, func(a, b PeerRouteSnap) int {
				return cmp.Or(bytes.Compare(a.PeerIP, b.PeerIP), cmp.Compare(a.PeerAS, b.PeerAS))
			})
			ck.Routes = append(ck.Routes, pr)
		}
		s.mu.RUnlock()
	}
	ck.Kernel = kernel.Merge(parts)
	slices.SortFunc(ck.Routes, func(a, b PrefixRoutes) int { return a.Prefix.Compare(b.Prefix) })
	return ck
}

// NewFromCheckpoint starts an engine primed with a checkpoint's state:
// kernel partitions and route tables are redistributed across cfg.Shards
// by prefix hash, and the replay counters resume where the checkpointed
// engine stopped. Continue feeding it with Replay and
// ReplayOptions.Resume{Records: ck.Records, ...} over a fresh open of the
// same archive. Checkpoints arrive from outside the process, so invalid
// prefixes, malformed peer addresses or attribute blocks, and a prefix
// whose route table is listed twice are errors.
func NewFromCheckpoint(cfg Config, ck *Checkpoint) (*Engine, error) {
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("stream: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	}
	if ck.Kernel == nil {
		return nil, fmt.Errorf("stream: checkpoint has no kernel snapshot")
	}
	e := New(cfg)
	// Every error return below must stop the shard workers New just
	// started, or each rejected checkpoint would leak goroutines.
	fail := func(err error) (*Engine, error) {
		e.Close()
		return nil, err
	}
	e.msgs.Store(ck.Messages)
	e.ops.Store(ck.Ops)
	e.recs.Store(ck.Records)
	e.lastClosed.Store(int64(ck.LastClosedDay))

	// Split the merged kernel snapshot into per-shard partitions. Spans,
	// the event count and the log are not prefix-keyed state machines —
	// they only ever feed engine-wide concatenations — so they land on
	// shard 0 wholesale. Kernel.Restore validates the prefixes.
	parts := make([]*kernel.Snapshot, len(e.shards))
	for i := range parts {
		parts[i] = &kernel.Snapshot{Version: kernel.SnapshotVersion}
	}
	for _, ps := range ck.Kernel.Prefixes {
		i := e.shardFor(ps.Prefix)
		parts[i].Prefixes = append(parts[i].Prefixes, ps)
	}
	for _, cs := range ck.Kernel.Conflicts {
		i := e.shardFor(cs.Prefix)
		parts[i].Conflicts = append(parts[i].Conflicts, cs)
	}
	parts[0].ClosedSpans = ck.Kernel.ClosedSpans
	parts[0].Events = ck.Kernel.Events
	parts[0].Log = ck.Kernel.Log
	for i, s := range e.shards {
		s.mu.Lock()
		err := s.k.Restore(parts[i])
		s.mu.Unlock()
		if err != nil {
			return fail(err)
		}
	}

	// Rebuild the per-peer route tables, re-sharing identical attribute
	// blocks the way the interning decode stage does on the live path.
	// The restore interner is 4-octet (the checkpoint wire form) and
	// local: a later Replay interns the live 2-octet encoding separately,
	// and the pointer fast path falls back to Attrs.Equal across the two.
	restoreIn := bgp.NewAttrsInterner(true)
	for i := range ck.Routes {
		pr := &ck.Routes[i]
		if !pr.Prefix.IsValid() {
			return fail(fmt.Errorf("stream: checkpoint route table without a valid prefix"))
		}
		if err := e.shards[e.shardFor(pr.Prefix)].restoreRoutes(pr, restoreIn); err != nil {
			return fail(err)
		}
	}
	return e, nil
}

// restoreRoutes installs one checkpointed prefix's route table.
func (s *shard) restoreRoutes(pr *PrefixRoutes, in *bgp.AttrsInterner) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.prefixes[pr.Prefix]; dup {
		// A second list would orphan the first one's arena nodes.
		return fmt.Errorf("stream: checkpoint lists routes for %v twice", pr.Prefix)
	}
	head := int32(-1)
	for _, rt := range pr.Routes {
		if len(rt.PeerIP) != 16 {
			return fmt.Errorf("stream: checkpoint peer ip for %v: %d bytes, want 16", pr.Prefix, len(rt.PeerIP))
		}
		attrs, err := in.Intern(rt.Attrs)
		if err != nil {
			return fmt.Errorf("stream: checkpoint attrs for %v: %w", pr.Prefix, err)
		}
		// upsert, not blind insert: a hand-edited or hostile checkpoint
		// may repeat a peer under one prefix, and a duplicate node would
		// shadow the peer's route forever (list walks stop at the first
		// match). Last entry wins, as the old map-based restore behaved.
		head, _ = s.upsertRoute(head, PeerKey{IP: [16]byte(rt.PeerIP), AS: rt.PeerAS}, attrs)
	}
	if head >= 0 {
		s.prefixes[pr.Prefix] = head
	}
	return nil
}
