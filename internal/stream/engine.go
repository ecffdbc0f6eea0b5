package stream

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"moas/internal/analysis"
	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/epilog"
	"moas/internal/kernel"
	"moas/internal/source"
)

// Config parameterizes an Engine.
type Config struct {
	// Shards is the number of worker goroutines the prefix space is hashed
	// across (0 = GOMAXPROCS).
	Shards int
	// BatchSize is the number of route ops buffered per shard before a
	// dispatch (0 = 256).
	BatchSize int
	// QueueDepth is each shard's channel depth in batches (0 = 8); full
	// queues exert backpressure on the ingest goroutine.
	QueueDepth int
	// DecodeWorkers is the number of parallel MRT decode workers a Replay
	// runs (0 = GOMAXPROCS). With one worker the decode stage is the
	// original serial goroutine; with more, a framing goroutine fans raw
	// record batches out to the workers and a reorder stage restores
	// archive order, so results are identical at any setting — only
	// throughput changes. Live sources (Run) decode on their own
	// goroutine and ignore this.
	DecodeWorkers int
	// HistoryLimit caps lifecycle events retained per prefix (0 = all).
	HistoryLimit int
	// MaxDistinctAttrs caps the attrs interner's table: when the number of
	// distinct interned attribute blocks reaches the cap, the interner
	// drops its table and arenas and starts a fresh epoch, so a
	// long-running live feed's canonicalization memory plateaus instead of
	// growing with every attrs block ever seen. 0 = unbounded (the replay
	// default: an archive's distinct-attrs population is finite).
	MaxDistinctAttrs int
	// DisableEventLog drops the global per-shard event record that backs
	// Events(). Long-running daemons set it so memory stays bounded by the
	// live table plus HistoryLimit; duration stats are unaffected (spans
	// are tracked incrementally, not derived from the log).
	DisableEventLog bool
	// OnEvent, when non-nil, receives every lifecycle event as it is
	// emitted. Calls come from the shard worker goroutines after the shard
	// lock is released, so a prefix's events arrive in order but events of
	// different prefixes interleave arbitrarily. The callback must be fast
	// and must not block (a blocked callback stalls that shard's worker)
	// and must not call back into the engine's feed methods. serve's SSE
	// hub is the intended consumer: it fans events out through buffered
	// per-subscriber channels and drops slow subscribers instead of
	// blocking here.
	OnEvent func(Event)
	// EpisodeLog, when non-nil, receives every episode record the shard
	// kernels emit (an open restatement per lifecycle event, a closing
	// record per conflict end). Appends happen on the shard worker
	// goroutines outside the shard lock; the eventless warm path never
	// touches the log. The log may still be unopened at New time — serve
	// binds it to its directory before the engine is reachable.
	EpisodeLog *epilog.Log
}

// Engine is the live streaming MOAS detector. Feed it with ApplyUpdate and
// CloseDay (or Replay over a BGP4MP archive); query it concurrently from
// any goroutine. The feeding side is single-goroutine, as a collector has
// one ingest stream.
type Engine struct {
	cfg    Config
	shards []*shard
	pend   [][]op // dispatcher-owned per-shard pending batches
	// opFree recycles op slices between the dispatcher and the shard
	// workers: flushShard takes a drained slice instead of allocating a
	// fresh batch per flush, so steady-state dispatch allocates nothing.
	opFree chan []op
	// interner canonicalizes decoded path-attribute blocks by wire bytes
	// for the replay decode stage; one pointer per distinct block is what
	// makes applyOne's pointer-equality fast path hit and keeps the
	// steady-state heap proportional to distinct attrs, not routes.
	interner *bgp.AttrsInterner
	wg       sync.WaitGroup
	closed   atomic.Bool // set by Close; read by API handlers

	msgs       atomic.Uint64
	ops        atomic.Uint64
	recs       atomic.Uint64 // MRT records fully consumed by Replay (checkpoint cursor)
	lastClosed atomic.Int64  // last day-close dispatched; -1 before any

	// Decode-stage observability: frames counts MRT records framed (read
	// ahead of the cursor), reorderDepth gauges the reorder buffer, and
	// dec points at the current/last replay's stage handle (see decStage).
	frames       atomic.Uint64
	reorderDepth atomic.Int64
	dec          atomic.Pointer[decStage]

	// src holds the live source a Run loop is currently draining (a
	// srcBox so the stored type is always identical); Stats and the
	// health endpoint read its Status through here.
	src atomic.Value

	// Pause gate. paused is non-nil while a pause is requested and is
	// closed (then nilled) by Resume; a replay parks on it between records.
	// parked flips true once the replay has actually settled and blocked.
	pauseMu sync.Mutex
	paused  chan struct{}
	parked  atomic.Bool

	// First unrecoverable worker failure (a panicked shard or decode
	// goroutine, contained by supervise). failedCh is closed on the
	// first recordFailure so Replay/Run loops blocked on a channel can
	// wake up and abort; the dead worker itself switches to drain mode
	// so producers never block on its queue.
	failMu   sync.Mutex
	failErr  error
	failedCh chan struct{}
}

// New starts an engine and its shard workers.
func New(cfg Config) *Engine {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	e := &Engine{
		cfg:  cfg,
		pend: make([][]op, cfg.Shards),
		// Capacity covers every batch that can be in flight at once (per
		// shard: the queue plus one being applied plus one pending), so a
		// recycled slice is always waiting once the pipeline warms up.
		opFree:   make(chan []op, cfg.Shards*(cfg.QueueDepth+2)),
		interner: bgp.NewAttrsInterner(false),
		failedCh: make(chan struct{}),
	}
	if cfg.MaxDistinctAttrs > 0 {
		e.interner.SetCap(cfg.MaxDistinctAttrs)
	}
	e.lastClosed.Store(-1)
	for i := 0; i < cfg.Shards; i++ {
		s := newShard(cfg.QueueDepth, cfg.HistoryLimit, !cfg.DisableEventLog, cfg.OnEvent, e.putOps, cfg.EpisodeLog)
		s.onFail = e.recordFailure
		e.shards = append(e.shards, s)
		e.wg.Add(1)
		go s.run(&e.wg)
	}
	return e
}

// recordFailure stores the first unrecoverable worker failure and
// wakes anything selecting on failed(). Later failures are dropped:
// the scenario is already doomed and the first cause is the one worth
// reporting.
func (e *Engine) recordFailure(err error) {
	if err == nil {
		return
	}
	e.failMu.Lock()
	if e.failErr == nil {
		e.failErr = err
		close(e.failedCh)
	}
	e.failMu.Unlock()
}

// Err returns the first contained worker failure, nil while healthy.
func (e *Engine) Err() error {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failErr
}

// failed is closed once a worker failure has been recorded.
func (e *Engine) failed() <-chan struct{} { return e.failedCh }

// takeOps returns a recycled op slice, or a fresh one while the pool
// warms up.
func (e *Engine) takeOps() []op {
	select {
	case b := <-e.opFree:
		return b
	default:
		return make([]op, 0, e.cfg.BatchSize)
	}
}

// putOps recycles a drained op slice; called by shard workers. The pool
// is sized to always have room, but a full pool simply drops the slice.
func (e *Engine) putOps(b []op) {
	select {
	case e.opFree <- b[:0]:
	default:
	}
}

// shardFor hashes a canonical prefix onto a shard (FNV-1a over the address
// bytes and length).
func (e *Engine) shardFor(p bgp.Prefix) int {
	a := p.Addr16()
	h := uint32(2166136261)
	for _, b := range a {
		h = (h ^ uint32(b)) * 16777619
	}
	h = (h ^ uint32(p.Bits())) * 16777619
	return int(h % uint32(len(e.shards)))
}

// ApplyUpdate decomposes one peer's UPDATE message into route ops —
// withdrawals then announcements, as on the wire — and dispatches them to
// the owning shards.
func (e *Engine) ApplyUpdate(day int, peer PeerKey, u *bgp.Update) {
	e.msgs.Add(1)
	for _, p := range u.Withdrawn {
		e.dispatch(op{day: day, withdraw: true, peer: peer, prefix: p})
	}
	if u.Attrs == nil {
		return
	}
	for _, p := range u.NLRI {
		e.dispatch(op{day: day, peer: peer, prefix: p, attrs: u.Attrs})
	}
}

func (e *Engine) dispatch(o op) {
	e.ops.Add(1)
	i := e.shardFor(o.prefix)
	e.pend[i] = append(e.pend[i], o)
	if len(e.pend[i]) >= e.cfg.BatchSize {
		e.flushShard(i)
	}
}

func (e *Engine) flushShard(i int) {
	if len(e.pend[i]) == 0 {
		return
	}
	e.shards[i].ch <- batch{ops: e.pend[i]}
	e.pend[i] = e.takeOps()
}

// CloseDay flushes pending batches and sends every shard a day-close
// barrier: each records its active conflicts for the day into its registry
// slice. FIFO channels guarantee the barrier lands after all of the day's
// updates.
func (e *Engine) CloseDay(day int) {
	for i := range e.shards {
		e.flushShard(i)
	}
	for _, s := range e.shards {
		s.ch <- batch{closeDay: day}
	}
	e.lastClosed.Store(int64(day))
}

// Sync blocks until every shard has processed all previously dispatched
// work — a fence for callers that need a settled view (tests, pause
// points). Like the feed methods it belongs to the ingest goroutine.
func (e *Engine) Sync() {
	for i := range e.shards {
		e.flushShard(i)
	}
	var wg sync.WaitGroup
	wg.Add(len(e.shards))
	for _, s := range e.shards {
		s.ch <- batch{sync: &wg}
	}
	wg.Wait()
}

// Pause asks the engine's replay to park at its next record boundary.
// Safe from any goroutine (serve's pause endpoint calls it while a replay
// is in flight). The replay settles all shards (Sync) before parking, so
// once it has parked, queries see a stable view; feeding resumes when
// Resume is called. Pausing an engine with no replay in flight simply
// primes the gate for the next Replay call.
func (e *Engine) Pause() {
	e.pauseMu.Lock()
	defer e.pauseMu.Unlock()
	if e.paused == nil {
		e.paused = make(chan struct{})
	}
}

// Resume releases a paused replay. Safe from any goroutine; a no-op when
// not paused.
func (e *Engine) Resume() {
	e.pauseMu.Lock()
	defer e.pauseMu.Unlock()
	if e.paused != nil {
		close(e.paused)
		e.paused = nil
	}
}

// Paused reports whether a pause has been requested. The replay may not
// have parked yet; a settled view is only guaranteed once it has.
func (e *Engine) Paused() bool {
	return e.pauseGate() != nil
}

// Parked reports whether a paused replay has actually settled and
// blocked: every shard is drained and the engine serves a stable view.
// Checkpointing a mid-replay engine requires it.
func (e *Engine) Parked() bool {
	return e.parked.Load()
}

func (e *Engine) pauseGate() chan struct{} {
	e.pauseMu.Lock()
	defer e.pauseMu.Unlock()
	return e.paused
}

// Records returns the number of MRT records fully consumed by Replay —
// the checkpoint cursor (Checkpoint.Records). The auto-checkpoint loop
// reads it as a cheap progress probe to skip writes when nothing moved.
func (e *Engine) Records() uint64 {
	return e.recs.Load()
}

// DistinctAttrs returns the number of distinct path-attribute blocks the
// replay decode stage has interned — the live measure of how repetitive
// the feed is (and of the interner's memory footprint). Safe to call
// concurrently with a replay.
func (e *Engine) DistinctAttrs() int {
	return e.interner.Len()
}

// Interner exposes the engine's attrs interner for sources that decode
// on the feed goroutine (Run's puller): sharing it is what makes a
// JSON-derived or wire-decoded attrs block land on the same canonical
// pointer a file replay produces. The interner is safe for concurrent
// use (Replay's decode workers intern through it in parallel).
func (e *Engine) Interner() *bgp.AttrsInterner {
	return e.interner
}

// Close flushes remaining work, stops the workers and waits for them to
// drain. The engine stays queryable; it only stops accepting updates.
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		return
	}
	for i := range e.shards {
		e.flushShard(i)
	}
	for _, s := range e.shards {
		close(s.ch)
	}
	e.wg.Wait()
}

// Registry merges every shard kernel's conflict records into one
// registry — after a full archive replay it is identical to what
// driver.RunFullScan builds (the equivalence holds at the kernel level).
// Safe to call concurrently with replay, but a mid-day call sees only
// days closed so far.
func (e *Engine) Registry() *core.Registry {
	out := core.NewRegistry()
	for _, s := range e.shards {
		s.mu.RLock()
		out.Absorb(s.k.Registry())
		s.mu.RUnlock()
	}
	return out
}

// ConflictInfo is one active conflict as served by the live query API.
type ConflictInfo struct {
	Prefix  bgp.Prefix
	Origins []bgp.ASN
	Class   core.Class
	// SinceDay is when the current activation began; the registry fields
	// cover the conflict's whole lifetime through the last closed day.
	SinceDay     int
	FirstDay     int
	LastDay      int
	DaysObserved int
}

// ActiveConflicts returns the current conflict set sorted by prefix.
func (e *Engine) ActiveConflicts() []ConflictInfo {
	var out []ConflictInfo
	for _, s := range e.shards {
		s.mu.RLock()
		s.k.WalkActive(func(p bgp.Prefix, v kernel.View) bool {
			ci := ConflictInfo{
				Prefix:   p,
				Origins:  append([]bgp.ASN(nil), v.Origins...),
				Class:    v.Class,
				SinceDay: v.Since,
			}
			if c, ok := s.k.Registry().Get(p); ok {
				ci.FirstDay, ci.LastDay, ci.DaysObserved = c.FirstDay, c.LastDay, c.DaysObserved
			}
			out = append(out, ci)
			return true
		})
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Compare(out[j].Prefix) < 0 })
	return out
}

// PrefixInfo is one prefix's live state and lifecycle history.
type PrefixInfo struct {
	Prefix   bgp.Prefix
	Active   bool
	Origins  []bgp.ASN
	Class    core.Class
	Routes   int // peers currently announcing the prefix
	History  []Event
	Conflict *core.Conflict // lifetime record; nil if never in conflict
}

// Prefix reports the live state of one prefix.
func (e *Engine) Prefix(p bgp.Prefix) PrefixInfo {
	s := e.shards[e.shardFor(p)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	info := PrefixInfo{Prefix: p}
	if v, ok := s.k.State(p); ok {
		info.Active = v.Active
		info.Origins = append([]bgp.ASN(nil), v.Origins...)
		info.Class = v.Class
		info.History = append([]Event(nil), v.History...)
	}
	if i, ok := s.k.Lookup(p); ok {
		info.Routes = s.routeCount(s.k.Head(i))
	}
	if c, ok := s.k.Registry().Get(p); ok {
		info.Conflict = c.Clone()
	}
	return info
}

// ASInvolvement summarizes one AS's participation in conflicts.
type ASInvolvement struct {
	ASN    bgp.ASN
	Active int // current conflicts whose origin set includes the AS
	Ever   int // lifetime conflicts whose origin set ever included it
	// ActivePrefixes lists the current conflicts, sorted.
	ActivePrefixes []bgp.Prefix
}

// Involvement reports a's conflict participation — the live form of the
// paper's §VI-E spike attribution.
func (e *Engine) Involvement(a bgp.ASN) ASInvolvement {
	inv := ASInvolvement{ASN: a}
	for _, s := range e.shards {
		s.mu.RLock()
		s.k.WalkActive(func(p bgp.Prefix, v kernel.View) bool {
			if containsASN(v.Origins, a) {
				inv.Active++
				inv.ActivePrefixes = append(inv.ActivePrefixes, p)
			}
			return true
		})
		for _, c := range s.k.Registry().Conflicts() {
			if containsASN(c.OriginsEver, a) {
				inv.Ever++
			}
		}
		s.mu.RUnlock()
	}
	sort.Slice(inv.ActivePrefixes, func(i, j int) bool {
		return inv.ActivePrefixes[i].Compare(inv.ActivePrefixes[j]) < 0
	})
	return inv
}

// Stats is a point-in-time engine summary.
type Stats struct {
	Shards          int
	Messages        uint64 // UPDATE messages ingested
	Ops             uint64 // route-level operations dispatched
	LastClosedDay   int    // -1 before the first day close
	DistinctAttrs   int    // attrs blocks interned by the replay decode stage
	InternerEpochs  int    // cap-triggered interner rebuilds (0 = never capped)
	InternerBytes   int64  // approximate retained interner memory
	RouteNodes      int    // per-peer route entries retained across all shards
	KernelStates    int    // kernel state objects (slots carved) retained across all shards
	Slots           int    // slots in use: prefixes with routes or a kept lifecycle; <= KernelStates
	ActiveConflicts int
	TotalConflicts  int                  // distinct prefixes ever in conflict
	Events          int                  // lifecycle events emitted
	ByClass         [core.NumClasses]int // active conflicts per class
	// Source is the live source's connection state when a Run loop is
	// draining one; nil for replay-fed or idle engines.
	Source *source.Status
	// Lifecycle summarizes activation-span durations derived from the
	// event log (conflict-start/-end pairs), as of the last closed day.
	Lifecycle analysis.LifecycleStats
	// Decode describes the replay decode pipeline; zero-valued until the
	// engine's first Replay.
	Decode DecodeStats
}

// DecodeStats is the replay decode pipeline's observability view: where
// the next bottleneck is hiding. RingOccupancy near the ring size with a
// deep ReorderBuffer means decode is outrunning apply; occupancy near
// zero means the framer (archive I/O) is the limit.
type DecodeStats struct {
	Workers       int     // decode workers of the current/last replay
	Frames        uint64  // MRT records framed (read-ahead of the cursor)
	FramesPerSec  float64 // framing rate over the current/last replay
	RingOccupancy int     // batches somewhere between framing and apply
	ReorderBuffer int     // batches parked waiting for their sequence turn
}

// LastClosedDay returns the last day close dispatched (-1 before any) —
// the natural as-of day for rendering open episodes from the episode
// log without paying for a full Stats snapshot.
func (e *Engine) LastClosedDay() int { return int(e.lastClosed.Load()) }

// Stats snapshots the engine.
func (e *Engine) Stats() Stats {
	st := Stats{
		Shards:         len(e.shards),
		Messages:       e.msgs.Load(),
		Ops:            e.ops.Load(),
		LastClosedDay:  int(e.lastClosed.Load()),
		DistinctAttrs:  e.DistinctAttrs(),
		InternerEpochs: e.interner.Epochs(),
		InternerBytes:  e.interner.Bytes(),
		Source:         e.SourceStatus(),
	}
	for _, s := range e.shards {
		s.mu.RLock()
		st.ActiveConflicts += s.k.ActiveCount()
		st.TotalConflicts += s.k.Registry().Len()
		st.Events += s.k.EventCount()
		st.RouteNodes += s.nodes.Len()
		st.KernelStates += s.k.ArenaStates()
		st.Slots += s.k.Slots()
		s.k.WalkActive(func(_ bgp.Prefix, v kernel.View) bool {
			st.ByClass[v.Class]++
			return true
		})
		s.mu.RUnlock()
	}
	st.Lifecycle = analysis.Lifecycle(e.Spans(), st.LastClosedDay)
	st.Decode = e.decodeStats()
	return st
}

// decodeStats snapshots the decode pipeline from the stage handle the
// current (or last finished) Replay published.
func (e *Engine) decodeStats() DecodeStats {
	ds := e.dec.Load()
	if ds == nil {
		return DecodeStats{}
	}
	st := DecodeStats{
		Workers:       ds.workers,
		Frames:        e.frames.Load(),
		RingOccupancy: ds.ring - len(ds.free),
		ReorderBuffer: int(e.reorderDepth.Load()),
	}
	end := time.Now()
	if ns := ds.end.Load(); ns != 0 {
		end = time.Unix(0, ns)
	}
	if sec := end.Sub(ds.start).Seconds(); sec > 0 {
		st.FramesPerSec = float64(st.Frames-ds.frames0) / sec
	}
	return st
}

// Spans returns the conflict activation spans — one per contiguous
// activation (conflict-start through conflict-end, open when no end has
// been seen). Ended spans are accumulated incrementally at event time, so
// the cost is O(spans), not O(event log); this is the event-derived
// duration dataset the /stats endpoint summarizes.
func (e *Engine) Spans() []analysis.Span {
	var out []analysis.Span
	for _, s := range e.shards {
		s.mu.RLock()
		out = s.k.AppendSpans(out)
		s.mu.RUnlock()
	}
	return out
}

// Events returns every lifecycle event emitted so far, in canonical order
// (day, prefix, per-prefix seq) — deterministic for a given input stream
// regardless of shard count, which the sharding-invariance test asserts.
// Empty when the engine runs with DisableEventLog.
func (e *Engine) Events() []Event {
	var out []Event
	for _, s := range e.shards {
		s.mu.RLock()
		out = append(out, s.k.Log()...)
		s.mu.RUnlock()
	}
	kernel.SortEvents(out)
	return out
}

func containsASN(set []bgp.ASN, a bgp.ASN) bool {
	for _, o := range set {
		if o == a {
			return true
		}
	}
	return false
}
