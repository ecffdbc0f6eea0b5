package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"moas/internal/synth"
)

// Load shape shared by every workload.
const (
	// feedRate is the traced live probe's open-loop send rate, in RIS
	// messages per second: well below where the generator or the live
	// apply path saturates on a two-core machine.
	feedRate = 2000
	// subscribers is K, the hub subscribers attached to the live probe.
	subscribers = 4
	// subBuffer is each subscriber's channel depth: the daemon's default
	// SSE event buffer, so a subscriber is dropped exactly when a real
	// SSE client would be.
	subBuffer = 1024
	// queryPause is the closed-loop query connection's think time
	// between requests, so the query load stays a fraction of one core.
	queryPause = 500 * time.Microsecond
	// setupReps is how many times set-up runs per run; setup_s is the
	// median.
	setupReps = 9
	// checkpointEvery is the live probe's checkpoint cadence in
	// messages: every 500 sent messages (0.25 s at feedRate) the feed
	// checkpoints its scenario through Registry.CheckpointNow, the park,
	// snapshot and write path the auto-checkpoint loop takes. Counting
	// messages rather than wall time puts the stalls at the same feed
	// positions in every run.
	checkpointEvery = 500
	// autoCheckpointInterval keeps the registries' own timer-driven
	// auto-checkpoints out of every run: a timer on a replay would park
	// and persist it mid-run.
	autoCheckpointInterval = time.Hour
)

// workload is one benchmark input: a replay corpus (the main scenario)
// and a live corpus, which traced runs feed as a probe beside the
// finished replay while the query connection reads the replay's state.
type workload struct {
	name   string
	replay synth.Config
	live   synth.Config
	// ingestReps, ckReps and recoverReps are the timed replays,
	// CheckpointNow and Recover calls per iteration; probeReps is the
	// live probes per traced iteration.
	ingestReps, probeReps, ckReps, recoverReps int
}

var workloadNames = []string{"replay-256k", "replay-churn"}

// episodePatterns is the mixed episode load over a replay table.
func episodePatterns(anycast, leak, hijack, flaps, churn, cycles int) []synth.Pattern {
	return []synth.Pattern{
		synth.Anycast(anycast),
		synth.RouteLeak(leak),
		synth.GradualHijack(hijack),
		synth.FlapStorm(flaps, churn, cycles),
	}
}

// liveConfig is a live corpus dense in flap-storm episodes, so a feed of
// a few thousand messages fires well over a thousand lifecycle events.
func liveConfig(seed int64, days, prefixes, flaps int) synth.Config {
	return synth.Config{
		Seed:     seed,
		Days:     days,
		Prefixes: prefixes,
		ASes:     4096,
		Vantages: 2,
		Patterns: episodePatterns(16, 16, 16, flaps, 16, 2),
	}
}

// newWorkload builds the named workload for seed. tiny shrinks every
// corpus for the self-test.
func newWorkload(name string, seed int64, tiny bool) (*workload, error) {
	live := liveConfig(seed+1, 10, 4096, 600)
	if tiny {
		live = liveConfig(seed+1, 5, 512, 60)
	}
	switch name {
	case "replay-256k":
		cfg := synth.Config{
			Seed:     seed,
			Days:     4,
			Prefixes: 1 << 18,
			ASes:     60000,
			Vantages: 2,
			Patterns: episodePatterns(256, 256, 256, 128, 256, 2),
		}
		if tiny {
			cfg.Prefixes = 8192
		}
		return &workload{name: name, replay: cfg, live: live,
			ingestReps: 3, probeReps: 2, ckReps: 2, recoverReps: 2}, nil
	case "replay-churn":
		cfg := synth.Config{
			Seed:        seed,
			Days:        10,
			Prefixes:    32768,
			ASes:        4096,
			Vantages:    8,
			ChurnPerDay: 16384,
			Patterns:    episodePatterns(64, 64, 64, 64, 256, 4),
		}
		if tiny {
			cfg.Days, cfg.Prefixes, cfg.ChurnPerDay = 5, 2048, 512
		}
		return &workload{name: name, replay: cfg, live: live,
			ingestReps: 2, probeReps: 1, ckReps: 3, recoverReps: 3}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// corpora is one set-up's output.
type corpora struct {
	replay *replayCorpus
	live   *liveCorpus // traced runs only
}

// setup generates the workload's inputs: the replay archive on disk
// and, for a traced run, the live corpus with its reference trigger map.
// The live corpus is stamped from tomorrow's UTC day, so the feed's days
// never trail the wall clock even when a run crosses midnight.
func (w *workload) setup(dir string, traced bool) (*corpora, error) {
	rc, err := writeReplayCorpus(w.replay, filepath.Join(dir, "corpus.mrt"))
	if err != nil {
		return nil, err
	}
	c := &corpora{replay: rc}
	if !traced {
		return c, nil
	}
	dayBase := int(time.Now().UTC().Unix()/86400) + 1
	lc, err := buildLiveCorpus(w.live, dayBase)
	if err != nil {
		return nil, err
	}
	if len(lc.trigger) == 0 {
		return nil, errors.New("live corpus fires no lifecycle events")
	}
	c.live = lc
	return c, nil
}

// runSetups runs set-up setupReps times and keeps the last corpora.
func (w *workload) runSetups(dir string, traced bool) (*corpora, []float64, error) {
	var c *corpora
	var times []float64
	for i := 0; i < setupReps; i++ {
		if err := os.RemoveAll(filepath.Join(dir, "corpus.mrt")); err != nil {
			return nil, nil, err
		}
		c = nil // drop the previous corpora before timing the next set-up
		t := time.Now()
		var err error
		c, err = w.setup(dir, traced)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return c, times, nil
}
