package kernel_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"moas/internal/bgp"
	"moas/internal/kernel"
)

// midRunSnapshot drives the shared script to its split point and returns
// the kernel's snapshot — the populated image (active and dissolved
// conflicts, history, spans, registry, log) the codec tests encode.
func midRunSnapshot(t testing.TB) *kernel.Snapshot {
	t.Helper()
	all, splitAt := script()
	k := kernel.New(kernel.Options{KeepLog: true})
	drive(k, all[:splitAt])
	return k.Snapshot()
}

// TestBinarySnapshotRoundTrip: the binary codec and the JSON render must
// both reproduce the exact snapshot image, and the binary form must be
// the smaller one.
func TestBinarySnapshotRoundTrip(t *testing.T) {
	snap := midRunSnapshot(t)
	if len(snap.Prefixes) == 0 || len(snap.Conflicts) == 0 || len(snap.Log) == 0 {
		t.Fatalf("fixture snapshot too empty to prove anything: %+v", snap)
	}

	bin := kernel.AppendSnapshotBinary(nil, snap)
	decoded, err := kernel.DecodeSnapshotBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, decoded) {
		t.Fatalf("binary round trip changed the snapshot:\nwant %+v\n got %+v", snap, decoded)
	}

	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin) >= len(js) {
		t.Fatalf("binary encoding (%d bytes) not smaller than JSON (%d bytes)", len(bin), len(js))
	}
	var thawed kernel.Snapshot
	if err := json.Unmarshal(js, &thawed); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, &thawed) {
		t.Fatalf("JSON round trip changed the snapshot:\nwant %+v\n got %+v", snap, &thawed)
	}
}

// TestBinarySnapshotRestoreEquivalence: restoring from the binary form
// mid-run and finishing the script matches the uninterrupted kernel, the
// same guarantee the JSON round-trip test proves.
func TestBinarySnapshotRestoreEquivalence(t *testing.T) {
	all, splitAt := script()
	opts := kernel.Options{KeepLog: true}

	uninterrupted := kernel.New(opts)
	drive(uninterrupted, all)

	snap, err := kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinary(nil, midRunSnapshot(t)))
	if err != nil {
		t.Fatal(err)
	}
	restored := kernel.New(opts)
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	drive(restored, all[splitAt:])

	if w, g := uninterrupted.Snapshot(), restored.Snapshot(); !reflect.DeepEqual(w, g) {
		t.Fatalf("final snapshots differ:\nwant %+v\n got %+v", w, g)
	}
	diffRegistries(t, uninterrupted.Registry(), restored.Registry())
}

// TestBinarySnapshotRejectsDamage: version skew, truncation at every
// byte boundary, magic corruption and trailing garbage must error — and
// never panic.
func TestBinarySnapshotRejectsDamage(t *testing.T) {
	snap := midRunSnapshot(t)
	bin := kernel.AppendSnapshotBinary(nil, snap)

	if _, err := kernel.DecodeSnapshotBinary(append(bytes.Clone(bin), 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	for cut := 0; cut < len(bin); cut++ {
		if _, err := kernel.DecodeSnapshotBinary(bin[:cut]); err == nil {
			t.Fatalf("truncation at byte %d accepted", cut)
		}
	}

	bad := bytes.Clone(bin)
	bad[0] = 'X' // magic
	if _, err := kernel.DecodeSnapshotBinary(bad); err == nil {
		t.Fatal("corrupt magic accepted")
	}

	snap.Version = 99
	if _, err := kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinary(nil, snap)); err == nil {
		t.Fatal("version-99 binary snapshot accepted")
	}
}

// TestRestoreRejectsBogusClass: a snapshot carrying a class byte past the
// known classes must fail restore up front — deferring it would panic in
// the first CloseDay's ClassDays indexing. The same goes for the other
// outside-input damage restore guards against: a prefix listed twice
// (the later entry would silently replace the earlier one, leaving e.g.
// an "active" conflict with one origin) and the zero prefix a JSON entry
// without "prefix" decodes to.
func TestRestoreRejectsBogusClass(t *testing.T) {
	p := bgp.MustParsePrefix("10.0.0.0/24")
	cases := map[string]func(s *kernel.Snapshot){
		"class 200":       func(s *kernel.Snapshot) { s.Prefixes[0].Class = 200 },
		"event class 200": func(s *kernel.Snapshot) { s.Log[0].PrevClass = 200 },
		"repeated prefix": func(s *kernel.Snapshot) {
			s.Prefixes = append(s.Prefixes,
				kernel.PrefixSnap{Prefix: p, Origins: []bgp.ASN{1, 2}},
				kernel.PrefixSnap{Prefix: p, Origins: []bgp.ASN{1}})
		},
		"repeated conflict": func(s *kernel.Snapshot) { s.Conflicts = append(s.Conflicts, s.Conflicts[0]) },
		"zero state prefix": func(s *kernel.Snapshot) { s.Prefixes[0].Prefix = bgp.Prefix{} },
		"zero conflict prefix": func(s *kernel.Snapshot) {
			s.Conflicts[0].Prefix = bgp.Prefix{}
		},
		"zero event prefix": func(s *kernel.Snapshot) { s.Log[0].Prefix = bgp.Prefix{} },
	}
	for name, damage := range cases {
		snap := midRunSnapshot(t)
		damage(snap)
		if err := kernel.New(kernel.Options{KeepLog: true}).Restore(snap); err == nil {
			t.Errorf("restore accepted a snapshot with %s", name)
		}
	}

	// A JSON entry without "prefix" leaves the zero Prefix behind.
	var snap kernel.Snapshot
	if err := json.Unmarshal([]byte(`{"version":1,"prefixes":[{"origins":[1,2]}]}`), &snap); err != nil {
		t.Fatal(err)
	}
	if err := kernel.New(kernel.Options{}).Restore(&snap); err == nil {
		t.Error("restore accepted a JSON state without a prefix")
	}
}
