package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/epilog"
	"moas/internal/serve"
	"moas/internal/source"
	"moas/internal/source/rislive"
	"moas/internal/stream"
	"moas/internal/synth"
)

// harness hosts the daemon in process: registries served by one
// loopback HTTP server (the handler follows the current registry across
// a restart), a fake RIS Live feed, and the single query connection.
type harness struct {
	fake    *rislive.Fake
	srv     *httptest.Server
	client  *http.Client
	handler atomic.Pointer[http.Handler]
	tr      *tracer // nil for untraced runs
	// dropTruth removes one expected episode before every truth
	// comparison; the self-test uses it to prove the gate bites.
	dropTruth bool
}

func newHarness() (*harness, error) {
	fake, err := rislive.NewFake()
	if err != nil {
		return nil, err
	}
	h := &harness{fake: fake}
	var none http.Handler = http.NotFoundHandler()
	h.handler.Store(&none)
	h.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*h.handler.Load()).ServeHTTP(w, r)
	}))
	h.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
	return h, nil
}

func (h *harness) close() {
	h.client.CloseIdleConnections()
	h.srv.Close()
	h.fake.Close()
}

// registry returns a fresh durable registry and points the server at it.
func (h *harness) registry(ckDir, epDir string) *serve.Registry {
	reg := serve.NewRegistry()
	reg.Durability = serve.Durability{Dir: ckDir, Interval: autoCheckpointInterval}
	reg.EpisodeDir = epDir
	hd := serve.NewHandler(reg)
	h.handler.Store(&hd)
	return reg
}

// remove deletes a scenario and then severs the fake feed's connection
// to it. Fake.Kill settles the feed's record of the dead connection
// before the next live scenario dials in: rislive.Fake's accept closes
// an already-closed channel (and panics) when a new client replaces one
// whose drop it has not noticed yet.
func (h *harness) remove(reg *serve.Registry, id string) {
	reg.Delete(id)
	h.fake.Kill()
}

// removeAll removes every scenario, without the final checkpoint
// Registry.Close would write.
func (h *harness) removeAll(reg *serve.Registry) {
	for _, s := range reg.List() {
		h.remove(reg, s.ID())
	}
}

// iteration is one measured pass of a workload.
type iteration struct {
	updatesPerS []float64
	heapMB      []float64
	checkpointS []float64
	recoverS    []float64
	attempted   int64
	failed      int64
	main        statsDoc // the main scenario's /stats before the restart
	updates     uint64
	ops         uint64

	readback []epilog.Episode
	asOf     int

	// Traced runs only.
	feeds                 []*feedResult // the live probes
	ringMean, reorderMean float64
}

// errMismatch marks a correctness failure: the run reports correct=false.
var errMismatch = errors.New("correctness mismatch")

func mismatch(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
}

// iterate runs the workload once: the replays, the live probes (traced
// runs only), CheckpointNow on the finished replay, and timed Recovers
// into fresh registries.
func (h *harness) iterate(w *workload, c *corpora, dir string) (*iteration, error) {
	it := &iteration{}
	ckA, epA := filepath.Join(dir, "ck"), filepath.Join(dir, "ep")
	reg := h.registry(ckA, epA)
	defer h.removeAll(reg)
	root := h.tr.begin("iteration", -1)
	defer h.tr.end(root)

	// Replay the archive ingestReps times; the last replay stays up for
	// the probes, the queries and the durability phase.
	var sc *serve.Scenario
	for r := 0; r < w.ingestReps; r++ {
		if sc != nil {
			reg.Delete("main")
		}
		var err error
		sc, err = h.replayMain(reg, c, it, root)
		it.attempted++
		if err != nil {
			return nil, err
		}
	}
	st := sc.Engine().Stats()
	it.updates, it.ops = st.Messages, st.Ops
	it.asOf = c.replay.days - 1
	var err error
	if it.readback, err = h.checkEpisodes(sc, c.replay.truth, 0, it.asOf); err != nil {
		return nil, fmt.Errorf("replay readback: %w", err)
	}

	if h.tr != nil {
		for r := 0; r < w.probeReps; r++ {
			f, err := h.probe(reg, c, root)
			if err != nil {
				return nil, err
			}
			it.feeds = append(it.feeds, f)
		}
	}
	for _, f := range it.feeds {
		it.attempted += int64(len(f.queries)) + int64(subscribers*f.expectedEvents) + int64(f.sent)
		it.failed += f.failedQueries + f.missed + int64(f.sent-f.applied)
	}

	// Durability: timed checkpoints of the finished replay, then timed
	// restarts, each into a fresh registry over hard links of the
	// on-disk state, since Delete removes a scenario's directories.
	pre, err := h.stats("main")
	if err != nil {
		return nil, err
	}
	it.main = pre
	for r := 0; r < w.ckReps; r++ {
		quiesce()
		sp := h.tr.begin("serve.checkpoint_now", root)
		t := time.Now()
		_, err = reg.CheckpointNow("main")
		it.checkpointS = append(it.checkpointS, time.Since(t).Seconds())
		h.tr.end(sp)
		it.attempted++
		if err != nil {
			return nil, fmt.Errorf("CheckpointNow: %w", err)
		}
	}
	ckB, epB := filepath.Join(dir, "ck-restart"), filepath.Join(dir, "ep-restart")
	if err := linkTree(filepath.Join(ckA, "main"), filepath.Join(ckB, "main")); err != nil {
		return nil, err
	}
	if err := linkTree(filepath.Join(epA, "main"), filepath.Join(epB, "main")); err != nil {
		return nil, err
	}
	h.remove(reg, "main")
	for r := 0; r < w.recoverReps; r++ {
		d, err := h.restart(pre, ckB, epB, filepath.Join(dir, fmt.Sprintf("restart%d", r)), root)
		it.attempted++
		if err != nil {
			return nil, err
		}
		it.recoverS = append(it.recoverS, d)
	}
	return it, nil
}

// restart recovers the checkpointed scenario into a fresh registry over
// links of ckB and epB under dir, and times Recover until the scenario
// answers /stats with the pre-restart totals.
func (h *harness) restart(pre statsDoc, ckB, epB, dir string, root int) (float64, error) {
	ck, ep := filepath.Join(dir, "ck"), filepath.Join(dir, "ep")
	if err := linkTree(filepath.Join(ckB, "main"), filepath.Join(ck, "main")); err != nil {
		return 0, err
	}
	if err := linkTree(filepath.Join(epB, "main"), filepath.Join(ep, "main")); err != nil {
		return 0, err
	}
	reg := h.registry(ck, ep)
	defer h.removeAll(reg)
	quiesce()
	sp := h.tr.begin("serve.recover", root)
	defer h.tr.end(sp)
	t := time.Now()
	n, err := reg.Recover()
	if err == nil && n != 1 {
		err = fmt.Errorf("recovered %d scenarios, want 1", n)
	}
	var post statsDoc
	for deadline := time.Now().Add(time.Minute); err == nil; {
		if post, err = h.stats("main"); err == nil && reflect.DeepEqual(pre, post) {
			break
		}
		if time.Now().After(deadline) {
			err = mismatch("recovered /stats %+v, pre-restart %+v", post, pre)
		}
		time.Sleep(time.Millisecond)
	}
	d := time.Since(t).Seconds()
	if err != nil {
		return 0, fmt.Errorf("Recover: %w", err)
	}
	return d, nil
}

// probe runs the live feed beside a finished replay: a rislive
// scenario in the same registry, fed open loop at feedRate, while the
// query connection reads the replay.
func (h *harness) probe(reg *serve.Registry, c *corpora, root int) (*feedResult, error) {
	defer h.remove(reg, "probe")
	sp := h.tr.begin("live.probe", root)
	defer h.tr.end(sp)
	subs0 := h.fake.Subscribes()
	sc, err := reg.Create(serve.ScenarioConfig{ID: "probe", Source: serve.SourceRISLive, URL: h.fake.URL()})
	if err != nil {
		return nil, err
	}
	if err := sc.Start(); err != nil {
		return nil, err
	}
	// Whether a collection of the large resident heap falls inside the
	// probe would otherwise be chance (the probe allocates close to the
	// GC trigger's headroom), so every probe starts with one in flight:
	// live detection beside the replayed table, as collected.
	gcDone := make(chan struct{})
	go func() {
		defer close(gcDone)
		runtime.GC()
	}()
	f, err := h.feed(reg, sc, c.live, subs0, targetsFor("main", c.replay.truth))
	<-gcDone
	if err != nil {
		return nil, err
	}
	lc := c.live
	if _, err := h.checkEpisodes(sc, lc.truth, lc.dayBase, lc.dayBase+lc.days-1); err != nil {
		return nil, fmt.Errorf("probe readback: %w", err)
	}
	return f, nil
}

// replayMain replays the workload's archive as the "main" mrt scenario
// and records its throughput (updates over the time from Create to state
// done, episode log written) and the heap it retains.
func (h *harness) replayMain(reg *serve.Registry, c *corpora, it *iteration, root int) (*serve.Scenario, error) {
	heap0 := liveHeap()
	sp := h.tr.begin("replay.main", root)
	defer h.tr.end(sp)
	t0 := time.Now()
	sc, err := reg.Create(serve.ScenarioConfig{ID: "main", Source: serve.SourceMRT, Path: c.replay.path})
	if err != nil {
		return nil, err
	}
	if err := sc.Start(); err != nil {
		return nil, err
	}
	var stopSampler func()
	if h.tr != nil {
		stopSampler = sampleDecode(sc.Engine(), &it.ringMean, &it.reorderMean)
	}
	err = waitState(sc, serve.StateDone, 10*time.Minute)
	ingest := time.Since(t0)
	if stopSampler != nil {
		stopSampler()
	}
	if err != nil {
		return nil, err
	}
	it.updatesPerS = append(it.updatesPerS, float64(sc.Engine().Stats().Messages)/ingest.Seconds())
	it.heapMB = append(it.heapMB, (liveHeap()-heap0)/(1<<20))
	return sc, nil
}

// waitState polls until the scenario reaches want (or fails).
func waitState(sc *serve.Scenario, want serve.State, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st := sc.Status()
		switch {
		case st.State == want:
			return nil
		case st.State == serve.StateFailed:
			return fmt.Errorf("scenario %s failed: %s", st.ID, st.Error)
		case time.Now().After(deadline):
			return fmt.Errorf("scenario %s still %s after %v", st.ID, st.State, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// sampleDecode averages the replay decode pipeline's ring occupancy and
// reorder buffer every 10ms until the returned stop is called.
func sampleDecode(e *stream.Engine, ring, reorder *float64) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var n, rs, os int
		for {
			select {
			case <-done:
				if n > 0 {
					*ring, *reorder = float64(rs)/float64(n), float64(os)/float64(n)
				}
				return
			case <-tick.C:
				if d := e.Stats().Decode; d.Workers > 0 {
					n, rs, os = n+1, rs+d.RingOccupancy, os+d.ReorderBuffer
				}
			}
		}
	}()
	return func() { close(done); <-exited }
}

// quiesce collects the garbage the previous step left before a timed
// step starts, so that garbage does not decide how much collection falls
// inside the step. Free pages stay with the runtime: handing them back
// to the OS as well made every step fault them in again, which was
// slower and noisier.
func quiesce() { runtime.GC() }

// liveHeap is the live heap after a forced collection, in bytes.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// linkTree hard-links every regular file of src into dst.
func linkTree(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() || e.Name()[0] == '.' {
			continue
		}
		if err := os.Link(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// checkEpisodes reads the scenario's whole episode log back and requires
// it to equal the synth truth shifted by dayBase, episode for episode.
func (h *harness) checkEpisodes(sc *serve.Scenario, truth []synth.Episode, dayBase, asOf int) ([]epilog.Episode, error) {
	lg := sc.EpisodeLog()
	if lg == nil {
		return nil, errors.New("scenario has no episode log")
	}
	got, err := lg.Query(epilog.Query{Class: -1, AsOf: asOf})
	if err != nil {
		return nil, err
	}
	if h.dropTruth && len(truth) > 0 {
		truth = truth[1:]
	}
	return got, diffTruth(got, truth, dayBase)
}

// diffTruth compares a log readback with the truth, days shifted.
func diffTruth(got []epilog.Episode, truth []synth.Episode, dayBase int) error {
	if len(got) != len(truth) {
		return mismatch("episode log holds %d episodes, truth has %d", len(got), len(truth))
	}
	for i := range got {
		g, w := &got[i], &truth[i]
		if g.Prefix != w.Prefix || g.Class != w.Class || g.Start != w.Start+dayBase ||
			g.End != w.End+dayBase || g.Open != w.Open || !reflect.DeepEqual(g.Origins, w.Origins) {
			return mismatch("episode %d: log %s %v %v [%d,%d] open=%v; truth %s %v %v [%d,%d] open=%v (%s)",
				i, g.Prefix, g.Origins, g.Class, g.Start, g.End, g.Open,
				w.Prefix, w.Origins, w.Class, w.Start+dayBase, w.End+dayBase, w.Open, w.Pattern)
		}
	}
	return nil
}

// statsDoc is the part of /stats a restart and a reference run must
// reproduce exactly: counters and conflict state, not the implementation
// gauges (arena sizes, interner, decode, source) that legitimately differ.
type statsDoc struct {
	Messages        uint64         `json:"messages"`
	Ops             uint64         `json:"ops"`
	LastClosedDay   int            `json:"last_closed_day"`
	ActiveConflicts int            `json:"active_conflicts"`
	TotalConflicts  int            `json:"total_conflicts"`
	Events          int            `json:"events"`
	ActiveByClass   map[string]int `json:"active_by_class"`
	Lifecycle       struct {
		Spans      int     `json:"spans"`
		Open       int     `json:"open"`
		MeanDays   float64 `json:"mean_days"`
		MedianDays float64 `json:"median_days"`
		MaxDays    int     `json:"max_days"`
	} `json:"lifecycle"`
}

func docFromStats(st stream.Stats) statsDoc {
	d := statsDoc{
		Messages:        st.Messages,
		Ops:             st.Ops,
		LastClosedDay:   st.LastClosedDay,
		ActiveConflicts: st.ActiveConflicts,
		TotalConflicts:  st.TotalConflicts,
		Events:          st.Events,
		ActiveByClass:   map[string]int{},
	}
	for cl, n := range st.ByClass {
		if n > 0 {
			d.ActiveByClass[core.Class(cl).String()] = n
		}
	}
	d.Lifecycle.Spans = st.Lifecycle.Spans
	d.Lifecycle.Open = st.Lifecycle.Open
	d.Lifecycle.MeanDays = st.Lifecycle.MeanDays
	d.Lifecycle.MedianDays = st.Lifecycle.MedianDays
	d.Lifecycle.MaxDays = st.Lifecycle.MaxDays
	return d
}

// stats fetches a scenario's /stats over the query connection.
func (h *harness) stats(id string) (statsDoc, error) {
	var d statsDoc
	body, code, err := h.get("/scenarios/" + id + "/stats")
	if err != nil {
		return d, err
	}
	if code != http.StatusOK {
		return d, fmt.Errorf("/stats: HTTP %d: %s", code, body)
	}
	return d, json.Unmarshal(body, &d)
}

func (h *harness) get(path string) ([]byte, int, error) {
	resp, err := h.client.Get(h.srv.URL + path)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return body, resp.StatusCode, err
}

// queryTarget is what the query connection reads: a scenario and the
// prefixes and origin ASes its truth says are in conflict.
type queryTarget struct {
	id       string
	prefixes []string
	asns     []string
}

func targetsFor(id string, truth []synth.Episode) queryTarget {
	qt := queryTarget{id: id}
	seen := map[bgp.ASN]bool{}
	for _, ep := range truth {
		qt.prefixes = append(qt.prefixes, ep.Prefix.String())
		for _, o := range ep.Origins {
			if !seen[o] {
				seen[o] = true
				qt.asns = append(qt.asns, strconv.FormatUint(uint64(o), 10))
			}
		}
	}
	return qt
}

// endpoints is the query connection's cycle.
var endpoints = []string{"conflicts", "prefix", "as", "episodes", "summary", "stats"}

func (qt *queryTarget) path(i int) (int, string) {
	ep := i % len(endpoints)
	j := i / len(endpoints)
	base := "/scenarios/" + qt.id
	switch ep {
	case 0:
		return ep, base + "/conflicts?limit=100"
	case 1:
		return ep, base + "/prefix/" + qt.prefixes[j%len(qt.prefixes)]
	case 2:
		return ep, base + "/as/" + qt.asns[j%len(qt.asns)]
	case 3:
		return ep, base + "/episodes?limit=100&as=" + qt.asns[j%len(qt.asns)]
	case 4:
		return ep, base + "/episodes/summary"
	}
	return ep, base + "/stats"
}

type querySample struct {
	endpoint int
	d        time.Duration
	ok       bool
	bytes    int
}

// feedResult is one live feed's measurements.
type feedResult struct {
	sent, applied  int
	expectedEvents int
	detectMS       []float64 // per event: trigger message due -> first subscriber receipt
	lateMaxMS      float64
	queries        []querySample
	failedQueries  int64
	missed         int64     // subscriber-events never received
	lagMS          []float64 // per message: due -> Engine.Records covers it
	backlogMax     int
	fanoutMS       []float64 // per event: first to last subscriber receipt
	sendS          float64
	hub            serve.HubStats
	epi            epilog.Stats
	src            source.Status
	health         serve.Health
}

type receipt struct {
	key eventKey
	t   time.Time
}

// feed drives lc through the live scenario sc of reg open loop at
// feedRate, with K hub subscribers attached, a checkpoint every
// checkpointEvery messages, and the query connection cycling through qt
// until every message is applied and every event delivered.
func (h *harness) feed(reg *serve.Registry, sc *serve.Scenario, lc *liveCorpus, subs0 int, qt queryTarget) (*feedResult, error) {
	if err := h.fake.WaitSubscribed(subs0+1, 10*time.Second); err != nil {
		return nil, err
	}
	fr := &feedResult{expectedEvents: len(lc.trigger)}
	eng := sc.Engine()
	hub := sc.Hub()

	// Everything feed starts — subscribers, the query connection, the
	// cursor sampler — is stopped by stopAll, on every return path.
	var subWG sync.WaitGroup
	var subs []*serve.Subscriber
	stopQueries := make(chan struct{})
	queriesDone := make(chan struct{})
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	ckCh := make(chan struct{}, 1)
	ckDone := make(chan struct{})
	var ckErr error
	var once sync.Once
	stopAll := func() {
		once.Do(func() {
			close(ckCh)
			<-ckDone
			close(stopSampler)
			<-samplerDone
			close(stopQueries)
			<-queriesDone
			for _, s := range subs {
				hub.Unsubscribe(s)
			}
			subWG.Wait()
		})
	}
	defer stopAll()

	got := make([][]receipt, subscribers)
	counts := make([]atomic.Int64, subscribers)
	for k := range got {
		s, err := hub.Subscribe(subBuffer, 0, false)
		if err != nil {
			close(ckDone)
			close(samplerDone)
			close(queriesDone)
			return nil, err
		}
		subs = append(subs, s)
		got[k] = make([]receipt, 0, fr.expectedEvents)
		subWG.Add(1)
		go func(k int) {
			defer subWG.Done()
			for sev := range s.C {
				if sev.Gap != nil {
					continue
				}
				got[k] = append(got[k], receipt{eventKey{sev.Event.Prefix, sev.Event.Seq}, time.Now()})
				counts[k].Add(1)
			}
		}(k)
	}

	// The feed's checkpoints run one at a time off the send loop; a mark
	// that finds one already queued is skipped, so the loop never waits.
	go func() {
		defer close(ckDone)
		for range ckCh {
			if _, err := reg.CheckpointNow(sc.ID()); err != nil && ckErr == nil {
				ckErr = err
			}
		}
	}()

	// A transport error is a failed query; any answer but a 200 with
	// JSON that parses is a wrong one.
	var badQuery string
	go func() {
		defer close(queriesDone)
		for i := 0; ; i++ {
			select {
			case <-stopQueries:
				return
			default:
			}
			ep, path := qt.path(i)
			t := time.Now()
			body, code, err := h.get(path)
			d := time.Since(t)
			if err == nil && (code != http.StatusOK || !json.Valid(body)) && badQuery == "" {
				badQuery = fmt.Sprintf("GET %s: HTTP %d: %.200s", path, code, body)
			}
			fr.queries = append(fr.queries, querySample{endpoint: ep, d: d, ok: err == nil, bytes: len(body)})
			time.Sleep(queryPause)
		}
	}()

	n := len(lc.msgs)
	interval := time.Second / feedRate
	start := time.Now().Add(20 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }

	var sent atomic.Int64
	type sample struct {
		t          time.Time
		recs, sent int64
	}
	samples := make([]sample, 0, 2*n*1000/feedRate+1000)
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case t := <-tick.C:
				samples = append(samples, sample{t, int64(eng.Records()), sent.Load()})
			}
		}
	}()

	var late, sendD time.Duration
	for i := range lc.msgs {
		if i > 0 && i%checkpointEvery == 0 {
			select {
			case ckCh <- struct{}{}:
			default:
			}
		}
		d := due(i)
		if wait := time.Until(d); wait > 0 {
			time.Sleep(wait)
		}
		t := time.Now()
		late = max(late, t.Sub(d))
		if err := h.fake.Send(lc.msgs[i]); err != nil {
			return nil, err
		}
		sendD += time.Since(t)
		sent.Add(1)
	}
	fr.sent = n
	fr.lateMaxMS = ms(late)
	fr.sendS = sendD.Seconds()

	// Applied: the engine's record cursor covers every message.
	deadline := time.Now().Add(30 * time.Second)
	for int(eng.Records()) < n && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	fr.applied = min(int(eng.Records()), n)
	// Delivered: every subscriber has every event (or a grace period passed).
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for k := range counts {
			if counts[k].Load() < int64(fr.expectedEvents) {
				all = false
			}
		}
		if all {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	fr.hub = hub.Stats()
	if lg := sc.EpisodeLog(); lg != nil {
		fr.epi = lg.Stats()
	}
	if st := eng.SourceStatus(); st != nil {
		fr.src = *st
	}
	fr.health = sc.Health()
	stopAll()

	if ckErr != nil {
		return nil, fmt.Errorf("feed checkpoint: %w", ckErr)
	}
	if badQuery != "" {
		return nil, mismatch("%s", badQuery)
	}
	for _, q := range fr.queries {
		if !q.ok {
			fr.failedQueries++
		}
	}

	first := make(map[eventKey]time.Time, fr.expectedEvents)
	last := make(map[eventKey]time.Time, fr.expectedEvents)
	seen := make(map[eventKey]int, fr.expectedEvents)
	for k := range got {
		for _, r := range got[k] {
			if _, ok := lc.trigger[r.key]; !ok {
				return nil, mismatch("subscriber received an event (%s seq %d) the reference never fired", r.key.prefix, r.key.seq)
			}
			if f, ok := first[r.key]; !ok || r.t.Before(f) {
				first[r.key] = r.t
			}
			if l, ok := last[r.key]; !ok || r.t.After(l) {
				last[r.key] = r.t
			}
			seen[r.key]++
		}
	}
	// Detection samples go in send order, which the windowed p99 needs.
	for _, key := range lc.events {
		i := lc.trigger[key]
		c := seen[key]
		fr.missed += int64(subscribers - c)
		if c == 0 {
			continue
		}
		fr.detectMS = append(fr.detectMS, ms(first[key].Sub(due(i))))
		if c == subscribers {
			fr.fanoutMS = append(fr.fanoutMS, ms(last[key].Sub(first[key])))
		}
	}

	// Lag: for message i, the first sample whose cursor covers it.
	j := 0
	for i := 0; i < fr.applied; i++ {
		for j < len(samples) && samples[j].recs < int64(i+1) {
			j++
		}
		if j == len(samples) {
			break
		}
		fr.lagMS = append(fr.lagMS, ms(samples[j].t.Sub(due(i))))
	}
	for _, s := range samples {
		fr.backlogMax = max(fr.backlogMax, int(s.sent-s.recs))
	}
	return fr, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serialInput opens the serial pass input: the replay archive.
func (c *corpora) serialInput() (io.Reader, func(), error) {
	f, err := os.Open(c.replay.path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}
