package stream

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
	"time"

	"moas/internal/analysis"
	"moas/internal/bgp"
)

// sortSpans orders spans for multiset comparison (shard iteration order
// is not deterministic).
func sortSpans(spans []analysis.Span) []analysis.Span {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		if spans[i].End != spans[j].End {
			return spans[i].End < spans[j].End
		}
		return !spans[i].Open && spans[j].Open
	})
	return spans
}

// checkpointAtDay replays the fixture archive until the given observed
// day closes, pauses there, waits for the park, checkpoints, and aborts
// the rest of the replay. It returns the checkpoint and the number of
// days closed.
func checkpointAtDay(t testing.TB, cfg Config, stopAfterDays int) (*Checkpoint, int) {
	t.Helper()
	sc, archive, _ := fixtures(t)
	cal := ScenarioCalendar(sc)
	e := New(cfg)

	closed := 0
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- e.Replay(bytes.NewReader(archive), cal, &ReplayOptions{
			Stop: stop,
			OnDayClose: func(day int) {
				closed++
				if closed == stopAfterDays {
					e.Pause()
				}
			},
		})
	}()

	deadline := time.Now().Add(30 * time.Second)
	for !e.Parked() {
		if time.Now().After(deadline) {
			t.Fatal("replay never parked")
		}
		time.Sleep(time.Millisecond)
	}
	ck := e.Checkpoint()
	close(stop)
	if err := <-done; err != ErrReplayStopped {
		t.Fatalf("aborted replay returned %v", err)
	}
	e.Close()
	return ck, closed
}

// TestCheckpointResumeMatchesUninterrupted is the persistence acceptance
// test: an engine restored from a mid-archive checkpoint — even with a
// different shard count — and fed the rest of the archive ends in exactly
// the state of an uninterrupted replay: registry, event log, spans,
// active conflicts and counters. The checkpoint crosses JSON to prove the
// codec round-trips.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	sc, archive, _ := fixtures(t)
	cal := ScenarioCalendar(sc)

	ck, daysClosed := checkpointAtDay(t, Config{Shards: 3}, len(cal.Days)/2)
	if daysClosed != len(cal.Days)/2 {
		t.Fatalf("paused after %d day closes, want %d", daysClosed, len(cal.Days)/2)
	}
	if ck.Records == 0 || ck.LastClosedDay < 0 {
		t.Fatalf("checkpoint cursor empty: %+v", ck)
	}

	// Round-trip the checkpoint through its JSON form.
	blob, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	var thawed Checkpoint
	if err := json.Unmarshal(blob, &thawed); err != nil {
		t.Fatal(err)
	}

	// Restore into a different shard layout and finish the archive.
	restored, err := NewFromCheckpoint(Config{Shards: 5}, &thawed)
	if err != nil {
		t.Fatal(err)
	}
	err = restored.Replay(bytes.NewReader(archive), cal, &ReplayOptions{
		Resume: &ReplayPosition{Records: thawed.Records, DaysClosed: daysClosed},
	})
	if err != nil {
		t.Fatal(err)
	}
	restored.Close()

	want := replayAll(t, Config{Shards: 4})
	diffRegistries(t, want.Registry(), restored.Registry())
	if w, g := want.Events(), restored.Events(); !reflect.DeepEqual(w, g) {
		t.Fatalf("event logs differ: %d vs %d events", len(w), len(g))
	}
	if w, g := sortSpans(want.Spans()), sortSpans(restored.Spans()); !reflect.DeepEqual(w, g) {
		t.Fatalf("spans differ:\nwant %v\n got %v", w, g)
	}
	if w, g := want.ActiveConflicts(), restored.ActiveConflicts(); !reflect.DeepEqual(w, g) {
		t.Fatalf("active conflicts differ: %d vs %d", len(w), len(g))
	}
	ws, gs := want.Stats(), restored.Stats()
	if ws.Messages != gs.Messages || ws.Ops != gs.Ops || ws.Events != gs.Events ||
		ws.LastClosedDay != gs.LastClosedDay || ws.ActiveConflicts != gs.ActiveConflicts ||
		ws.TotalConflicts != gs.TotalConflicts || ws.Lifecycle != gs.Lifecycle {
		t.Fatalf("stats differ:\nwant %+v\n got %+v", ws, gs)
	}
}

// TestCheckpointOfFinishedEngine: checkpointing after a complete replay
// and restoring yields the same queryable state, and resuming the replay
// is a no-op that ends cleanly.
func TestCheckpointOfFinishedEngine(t *testing.T) {
	sc, archive, _ := fixtures(t)
	cal := ScenarioCalendar(sc)
	want := replayAll(t, Config{Shards: 2})
	ck := want.Checkpoint()

	restored, err := NewFromCheckpoint(Config{Shards: 2}, ck)
	if err != nil {
		t.Fatal(err)
	}
	err = restored.Replay(bytes.NewReader(archive), cal, &ReplayOptions{
		Resume: &ReplayPosition{Records: ck.Records, DaysClosed: len(cal.Days)},
	})
	if err != nil {
		t.Fatal(err)
	}
	restored.Close()
	diffRegistries(t, want.Registry(), restored.Registry())
	if w, g := want.Events(), restored.Events(); !reflect.DeepEqual(w, g) {
		t.Fatalf("event logs differ: %d vs %d events", len(w), len(g))
	}
}

// TestCheckpointVersionRejected: a future-version checkpoint must not
// restore, and neither may the other outside-input damage restore
// guards against — a prefix listed twice (which would orphan the first
// route list's arena nodes or overwrite kernel state), the zero prefix a
// JSON entry without "prefix" decodes to, a peer address that is not 16
// bytes, and an attribute block that does not decode.
func TestCheckpointVersionRejected(t *testing.T) {
	e := New(Config{Shards: 1})
	e.Close()
	ck := e.Checkpoint()
	ck.Version = 99
	if _, err := NewFromCheckpoint(Config{Shards: 1}, ck); err == nil {
		t.Fatal("restore accepted a version-99 checkpoint")
	}

	cases := map[string]func(ck *Checkpoint){
		"repeated route prefix": func(ck *Checkpoint) {
			dup := ck.Routes[0]
			dup.Routes = dup.Routes[:1]
			ck.Routes = append(ck.Routes, dup)
		},
		"repeated kernel prefix": func(ck *Checkpoint) {
			ck.Kernel.Prefixes = append(ck.Kernel.Prefixes, ck.Kernel.Prefixes[0])
		},
		"zero route prefix":  func(ck *Checkpoint) { ck.Routes[0].Prefix = bgp.Prefix{} },
		"zero kernel prefix": func(ck *Checkpoint) { ck.Kernel.Prefixes[0].Prefix = bgp.Prefix{} },
		"short peer ip":      func(ck *Checkpoint) { ck.Routes[0].Routes[0].PeerIP = HexBytes{1, 2, 3, 4} },
		"bad attrs":          func(ck *Checkpoint) { ck.Routes[0].Routes[0].Attrs = HexBytes{0x40, 0x01} },
	}
	for name, damage := range cases {
		ck := tinyCheckpoint(t)
		damage(ck)
		e, err := NewFromCheckpoint(Config{Shards: 2}, ck)
		if err == nil {
			e.Close()
			t.Errorf("restore accepted a checkpoint with %s", name)
		}
	}
}
