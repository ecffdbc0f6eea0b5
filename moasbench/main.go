// Command moasbench is moasd's end-to-end benchmark. It hosts the daemon
// in process — serve.Registry with durability and the episode log on,
// serve.NewHandler on a loopback HTTP server, scenarios created and
// started through the registry — and measures one workload:
//
//	replay-256k   a 256k-prefix synth archive replayed from an MRT file
//	replay-churn  a cache-resident table under heavy identical-attribute churn
//
// Inputs are generated from --seed before any timer starts, every run
// checks its output against the synth ground truth, and the last line of
// standard output is one JSON result. --trace 1 runs the workload once
// with spans around every call into the daemon's layers, plus a RIS Live
// probe fed open loop beside the finished replay under query load, and
// prints the per-layer metrics instead of the end-to-end ones. See
// README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	tiny      bool   // self-test corpus sizes
	dropTruth bool   // remove one expected episode (self-test of the gate)
	dir       string // corpora, daemon state and trace files
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measurement time per run")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()
	o.trace = trace == 1
	// Corpora, daemon state and traces live beside run.sh's build
	// output; the self-test points dir at a temporary directory.
	o.dir = ".bench_build"

	res, info, err := run(o)
	if info != nil {
		info["env"].(map[string]any)["max_rss_mb"] = maxRSSMB()
		line, _ := json.Marshal(info)
		fmt.Println(string(line))
	}
	if err != nil && !errors.Is(err, errMismatch) {
		fmt.Fprintln(os.Stderr, "moasbench:", err)
		os.Exit(1)
	}
	if err != nil {
		// A mismatch: report it with no metrics, since they measured a
		// wrong answer.
		fmt.Fprintln(os.Stderr, "moasbench:", err)
		res.Attempted = max(res.Attempted, 1)
		res.Metrics = map[string]metric{}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run. A correctness mismatch returns an
// error wrapping errMismatch together with a non-nil result.
func run(o options) (*result, map[string]any, error) {
	w, err := newWorkload(o.workload, o.seed, o.tiny)
	if err != nil {
		return nil, nil, err
	}
	dir, err := filepath.Abs(filepath.Join(o.dir, fmt.Sprintf("run-%s-%d-%d", w.name, o.seed, os.Getpid())))
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	c, setupTimes, err := w.runSetups(dir, o.trace)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	h, err := newHarness()
	if err != nil {
		return nil, nil, err
	}
	defer h.close()
	h.dropTruth = o.dropTruth
	res := &result{Correct: true, Metrics: map[string]metric{}}
	info := envStamp(o, w, c)

	if o.trace {
		h.tr = newTracer()
		err = runTraced(h, w, c, dir, res, info, o)
	} else {
		err = runMeasured(h, w, c, dir, o.seconds, setupTimes, res, info)
	}
	if err != nil {
		if errors.Is(err, errMismatch) {
			res.Correct = false
			return res, info, err
		}
		return nil, info, err
	}
	return res, info, nil
}

// runMeasured runs one warm-up iteration, then repeats untraced
// iterations for at least seconds and reports the end-to-end metrics:
// medians over every sample after the warm-up. The warm-up's samples
// read 10-15% slow (the process heap grows to its working size) and are
// dropped; its operations still count in attempted and failed.
func runMeasured(h *harness, w *workload, c *corpora, dir string, seconds int, setupTimes []float64, res *result, info map[string]any) error {
	var its []*iteration
	var start time.Time
	for i := 0; i <= 1 || time.Since(start) < time.Duration(seconds)*time.Second; i++ {
		if i == 1 {
			start = time.Now()
		}
		itDir := filepath.Join(dir, fmt.Sprintf("it%d", i))
		it, err := h.iterate(w, c, itDir)
		if err != nil {
			return err
		}
		res.Attempted += it.attempted
		res.Failed += it.failed
		if i > 0 {
			its = append(its, it)
		}
		if err := os.RemoveAll(itDir); err != nil {
			return err
		}
	}
	all := func(f func(*iteration) []float64) []float64 {
		var v []float64
		for _, it := range its {
			v = append(v, f(it)...)
		}
		return v
	}
	ingest := all(func(it *iteration) []float64 { return it.updatesPerS })
	ckS := all(func(it *iteration) []float64 { return it.checkpointS })
	recS := all(func(it *iteration) []float64 { return it.recoverS })
	m := res.Metrics
	m["setup_s"] = metric{median(setupTimes), "s"}
	m["updates_per_s"] = metric{median(ingest), "updates/s"}
	m["heap_retained_mb"] = metric{median(all(func(it *iteration) []float64 { return it.heapMB })), "MB"}
	m["checkpoint_s"] = metric{median(ckS), "s"}
	m["recover_s"] = metric{median(recS), "s"}
	info["samples_s"] = map[string]any{"setup": setupTimes, "checkpoint": ckS, "recover": recS}
	info["updates_per_s"] = ingest
	info["samples"] = map[string]any{
		"iterations":       len(its),
		"replays":          len(ingest),
		"checkpoints":      len(ckS),
		"recovers":         len(recS),
		"setup_reps":       len(setupTimes),
		"updates_per_iter": its[0].updates,
		"route_ops":        its[0].ops,
	}
	return nil
}

// budgetFloor is the share of the serial pass's wall time its stage self
// times must cover: the per-layer costs add up to the end-to-end cost.
const budgetFloor = 0.90

// runTraced runs one traced iteration plus the serial stage-by-stage
// pass and reports the per-layer metrics.
func runTraced(h *harness, w *workload, c *corpora, dir string, res *result, info map[string]any, o options) error {
	tr := h.tr
	it, err := h.iterate(w, c, filepath.Join(dir, "it0"))
	if err != nil {
		return err
	}
	res.Attempted += it.attempted
	res.Failed += it.failed
	f := it.feeds[len(it.feeds)-1]
	var detect, query []float64
	for _, f := range it.feeds {
		detect = append(detect, f.detectMS...)
		for _, q := range f.queries {
			query = append(query, ms(q.d))
		}
	}

	// Serial pass at shards=1, untimed and then timed: the difference of
	// the two walls is the tracing overhead.
	in, closeIn, err := c.serialInput()
	if err != nil {
		return err
	}
	plain, err := serialPass(in, nil)
	closeIn()
	if err != nil {
		return err
	}
	plainWall := plain.wall
	plain = nil
	liveHeap() // release the untimed pass's engine before the timed one

	in, closeIn, err = c.serialInput()
	if err != nil {
		return err
	}
	sp := tr.begin("serial.ingest", -1)
	traced, err := serialPass(in, tr)
	tr.end(sp)
	closeIn()
	if err != nil {
		return err
	}
	st := traced.eng.Stats()
	if got := docFromStats(st); !reflect.DeepEqual(got, it.main) {
		return mismatch("serial pass stats %+v, daemon run %+v", got, it.main)
	}
	distinct := traced.eng.DistinctAttrs()
	var stageSum float64
	for _, s := range serialStages {
		stageSum += tr.self(s)
	}
	budget := stageSum / traced.wall.Seconds()
	if budget < budgetFloor {
		return fmt.Errorf("stage budget: serial stages cover %.3f of the pass wall time, want >= %.2f", budget, budgetFloor)
	}

	// Only eng keeps the serial engine alive from here, so the checkpoint
	// stages can let it go once the snapshot is taken.
	eng := traced.eng
	serialWall, frames, mrtBytes, internCalls := traced.wall, traced.frames, traced.bytes, traced.internCalls
	traced = nil
	sp = tr.begin("serial.checkpoint", -1)
	ckBytes, err := checkpointStages(eng, filepath.Join(dir, "serial-ck"), tr)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("serial.epilog", -1)
	epBytes, err := epilogStages(it.readback, filepath.Join(dir, "serial-ep"), it.asOf, tr)
	tr.end(sp)
	if err != nil {
		return err
	}

	m := res.Metrics
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	put("mrt.frame_s", tr.self("mrt.frame"), "s")
	put("mrt.frames", float64(frames), "count")
	put("mrt.bytes", float64(mrtBytes), "B")
	put("bgp.decode_s", tr.self("bgp.decode"), "s")
	put("bgp.updates", float64(st.Messages), "count")
	put("bgp.intern_distinct", float64(distinct), "count")
	put("bgp.intern_hit_ratio", ratio(float64(internCalls-int64(distinct)), float64(internCalls)), "ratio")
	put("stream.decode_ring_occupancy", it.ringMean, "batches")
	put("stream.reorder_buffer", it.reorderMean, "batches")
	put("stream.dispatch_s", tr.self("stream.dispatch"), "s")
	put("stream.sync_wait_s", tr.self("stream.sync_wait"), "s")
	put("stream.closeday_s", tr.self("stream.closeday"), "s")
	put("stream.ops", float64(st.Ops), "count")
	put("stream.kernel_states", float64(st.KernelStates), "count")
	put("stream.route_nodes", float64(st.RouteNodes), "count")
	put("stream.events", float64(st.Events), "count")
	put("stream.snapshot_s", tr.self("stream.snapshot"), "s")
	put("stream.ck_encode_s", tr.self("stream.ck_encode"), "s")
	put("stream.ck_bytes", float64(ckBytes), "B")
	put("stream.ck_decode_s", tr.self("stream.ck_decode"), "s")
	put("stream.restore_s", tr.self("stream.restore"), "s")
	put("serve.checkpoint_write_s", tr.self("serve.checkpoint_write"), "s")
	put("epilog.append_s", tr.self("epilog.append"), "s")
	put("epilog.appends", float64(len(it.readback)), "count")
	put("epilog.bytes", float64(epBytes), "B")
	put("epilog.query_s", tr.self("epilog.query"), "s")
	put("epilog.summary_s", tr.self("epilog.summary"), "s")
	put("source.lag_p99_ms", quantile(f.lagMS, 0.99), "ms")
	put("source.backlog_max", float64(f.backlogMax), "count")
	put("source.gaps", float64(f.src.Gaps), "count")
	put("source.reconnects", float64(f.src.Reconnects), "count")
	put("serve.hub_published", float64(f.hub.Published), "count")
	put("serve.hub_dropped", float64(f.hub.Dropped), "count")
	put("serve.hub_fanout_ms", quantile(f.fanoutMS, 0.99), "ms")
	perEndpoint := make([][]float64, len(endpoints))
	var httpBytes int
	for _, f := range it.feeds {
		for _, q := range f.queries {
			perEndpoint[q.endpoint] = append(perEndpoint[q.endpoint], ms(q.d))
			httpBytes += q.bytes
		}
	}
	for i, name := range endpoints {
		put("serve.http."+name+"_p50_ms", quantile(perEndpoint[i], 0.50), "ms")
		put("serve.http."+name+"_p99_ms", quantile(perEndpoint[i], 0.99), "ms")
	}
	put("serve.http.bytes", float64(httpBytes), "B")
	put("live.detect_p50_ms", median(detect), "ms")
	put("live.detect_p99_ms", quantile(detect, 0.99), "ms")
	put("live.query_p50_ms", median(query), "ms")
	put("live.query_p99_ms", quantile(query, 0.99), "ms")
	put("gen.late_max_ms", f.lateMaxMS, "ms")
	put("trace.budget_share", budget, "ratio")
	put("trace.overhead_s", serialWall.Seconds()-plainWall.Seconds(), "s")
	put("trace.serial_wall_s", serialWall.Seconds(), "s")
	put("error_rate", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")

	path, err := tr.write(filepath.Join(o.dir, "trace"), fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
	if err != nil {
		return err
	}
	info["trace_file"] = path
	info["quantiles_ms"] = map[string]any{"detect": tail(detect), "query": tail(query)}
	info["samples"] = map[string]any{
		"detect":     len(detect),
		"query":      len(query),
		"lag":        len(f.lagMS),
		"fanout":     len(f.fanoutMS),
		"send_s":     f.sendS,
		"health_ok":  f.health.OK,
		"epilog_log": f.epi,
		"stage_budget": map[string]any{
			"floor": budgetFloor, "share": budget, "stages": serialStages,
		},
	}
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank q-quantile of v (0 for an empty v).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(float64(len(s))*q+0.999999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// envStamp records what the numbers depend on, so results from machines
// of different sizes are never compared blind.
func envStamp(o options, w *workload, c *corpora) map[string]any {
	corpus := map[string]any{
		"replay_bytes":    c.replay.bytes,
		"replay_episodes": len(c.replay.truth),
	}
	if c.live != nil {
		corpus["live_msgs"] = len(c.live.msgs)
		corpus["live_mrt_bytes"] = len(c.live.mrt)
		corpus["live_events"] = len(c.live.trigger)
		corpus["live_episodes"] = len(c.live.truth)
		corpus["feed_rate"] = feedRate
		corpus["subscribers"] = subscribers
	}
	return map[string]any{
		"env": map[string]any{
			"workload":   w.name,
			"seed":       o.seed,
			"trace":      o.trace,
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"cpu":        cpuModel(),
			"commit":     gitCommit(),
		},
		"corpus": corpus,
	}
}

// cpuModel is the first "model name" line of /proc/cpuinfo, if any.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout without .git (an exported tree) reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// maxRSSMB is the process's peak resident set so far, in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// tail summarizes a latency sample's upper quantiles for the info line.
func tail(v []float64) map[string]float64 {
	return map[string]float64{
		"p90": quantile(v, 0.90), "p95": quantile(v, 0.95), "p99": quantile(v, 0.99),
		"p999": quantile(v, 0.999), "max": quantile(v, 1),
	}
}
