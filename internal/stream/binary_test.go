package stream

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"moas/internal/bgp"
)

// tinyCheckpoint builds a small, fully deterministic engine checkpoint
// by scripting updates directly instead of replaying an archive: three
// peers, three prefixes, a conflict that starts, churns origin and
// class, and one that dissolves, across three closed days. Checkpoint
// output is sorted everywhere, so the bytes are stable run to run —
// which is what the golden fixtures, fuzz seed corpus, and the
// byte-by-byte damage scan need (the real archive checkpoint is
// megabytes; scanning it per byte would be quadratic).
func tinyCheckpoint(t testing.TB) *Checkpoint {
	t.Helper()
	e := New(Config{Shards: 2})
	peer := func(last byte, as bgp.ASN) PeerKey {
		var k PeerKey
		k.IP[15] = last
		k.AS = as
		return k
	}
	p1, p2 := peer(1, 701), peer(2, 3356)
	p3 := peer(3, 1239)
	pa := bgp.MustParsePrefix("10.0.0.0/8")
	pb := bgp.MustParsePrefix("192.0.2.0/24")
	pc := bgp.MustParsePrefix("2001:db8::/32")
	ann := func(day int, pk PeerKey, p bgp.Prefix, path ...bgp.ASN) {
		e.ApplyUpdate(day, pk, &bgp.Update{NLRI: []bgp.Prefix{p}, Attrs: &bgp.Attrs{ASPath: bgp.Seq(path...)}})
	}
	ann(0, p1, pa, 701, 9)
	ann(0, p2, pa, 3356, 7) // pa: MOAS 7 vs 9
	ann(0, p1, pb, 701, 42)
	ann(0, p3, pc, 1239, 64500)
	e.CloseDay(0)
	ann(1, p3, pa, 1239, 2914, 11) // pa origin set grows
	ann(1, p2, pb, 3356, 43)       // pb: MOAS 42 vs 43
	e.CloseDay(1)
	e.ApplyUpdate(2, p2, &bgp.Update{Withdrawn: []bgp.Prefix{pb}}) // pb dissolves
	e.CloseDay(2)
	e.Close()
	return e.Checkpoint()
}

// TestBinaryCheckpointRoundTrip: the binary codec and the JSON render
// must both reproduce the exact checkpoint image, and the binary form —
// the reason it exists — must be the smaller one.
func TestBinaryCheckpointRoundTrip(t *testing.T) {
	sc, _, _ := fixtures(t)
	ck, _ := checkpointAtDay(t, Config{Shards: 2}, len(ScenarioCalendar(sc).Days)/2)
	if len(ck.Routes) == 0 || len(ck.Kernel.Prefixes) == 0 {
		t.Fatalf("fixture checkpoint too empty to prove anything")
	}

	bin, err := AppendCheckpointBinary(nil, ck)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin) >= len(js) {
		t.Fatalf("binary checkpoint (%d bytes) not smaller than JSON (%d bytes)", len(bin), len(js))
	}
	decoded, err := DecodeCheckpointBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, decoded) {
		t.Fatal("binary round trip changed the checkpoint")
	}
	var thawed Checkpoint
	if err := json.Unmarshal(js, &thawed); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, &thawed) {
		t.Fatal("JSON round trip changed the checkpoint")
	}
}

// TestBinaryCheckpointResumeMatchesUninterrupted: a mid-archive
// checkpoint crossing the binary codec and restored into a different
// shard layout finishes the archive in exactly the uninterrupted
// engine's state — the binary counterpart of the JSON resume test.
func TestBinaryCheckpointResumeMatchesUninterrupted(t *testing.T) {
	sc, archive, _ := fixtures(t)
	cal := ScenarioCalendar(sc)

	ck, daysClosed := checkpointAtDay(t, Config{Shards: 4}, len(cal.Days)/3)
	bin, err := AppendCheckpointBinary(nil, ck)
	if err != nil {
		t.Fatal(err)
	}
	thawed, err := DecodeCheckpointBinary(bin)
	if err != nil {
		t.Fatal(err)
	}

	restored, err := NewFromCheckpoint(Config{Shards: 2}, thawed)
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

	want := replayAll(t, Config{Shards: 3})
	diffRegistries(t, want.Registry(), restored.Registry())
	if w, g := want.Events(), restored.Events(); !reflect.DeepEqual(w, g) {
		t.Fatalf("event logs differ: %d vs %d events", len(w), len(g))
	}
	if w, g := sortSpans(want.Spans()), sortSpans(restored.Spans()); !reflect.DeepEqual(w, g) {
		t.Fatalf("spans differ:\nwant %v\n got %v", w, g)
	}
	ws, gs := want.Stats(), restored.Stats()
	if ws.Messages != gs.Messages || ws.Ops != gs.Ops || ws.Events != gs.Events ||
		ws.LastClosedDay != gs.LastClosedDay || ws.ActiveConflicts != gs.ActiveConflicts ||
		ws.TotalConflicts != gs.TotalConflicts || ws.Lifecycle != gs.Lifecycle {
		t.Fatalf("stats differ:\nwant %+v\n got %+v", ws, gs)
	}
}

// TestBinaryCheckpointRejectsDamage: truncation at every byte boundary,
// magic corruption, trailing garbage and version skew must error — never
// panic — in both binary containers: v2 as the writer produces it, and
// the committed read-only v1 fixture.
func TestBinaryCheckpointRejectsDamage(t *testing.T) {
	ck := tinyCheckpoint(t)
	v2, err := AppendCheckpointBinary(nil, ck)
	if err != nil {
		t.Fatal(err)
	}
	future := *ck
	future.Version = 99
	v2Future, err := AppendCheckpointBinary(nil, &future)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := os.ReadFile(goldenBinary)
	if err != nil {
		t.Fatal(err)
	}
	// v1 keeps the struct version in the byte after the magic.
	v1Future := bytes.Clone(v1)
	v1Future[len(checkpointMagic)] = 99

	containers := map[string]struct{ bin, future []byte }{
		"v2": {v2, v2Future},
		"v1": {v1, v1Future},
	}
	for name, c := range containers {
		t.Run(name, func(t *testing.T) {
			bin := c.bin
			if decoded, err := DecodeCheckpointBinary(bin); err != nil || len(decoded.Routes) == 0 {
				t.Fatalf("undamaged checkpoint unusable: %v", err)
			}
			if _, err := DecodeCheckpointBinary(append(bytes.Clone(bin), 0x01)); err == nil {
				t.Fatal("trailing garbage accepted")
			}
			for cut := 0; cut < len(bin); cut++ {
				if _, err := DecodeCheckpointBinary(bin[:cut]); err == nil {
					t.Fatalf("truncation at byte %d accepted", cut)
				}
			}
			bad := bytes.Clone(bin)
			bad[0] = 'J'
			if _, err := DecodeCheckpointBinary(bad); err == nil {
				t.Fatal("corrupt magic accepted")
			}
			if _, err := DecodeCheckpointBinary(c.future); err == nil {
				t.Fatal("version-99 binary checkpoint accepted")
			}
		})
	}
}
