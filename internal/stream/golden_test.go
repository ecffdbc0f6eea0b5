package stream

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"moas/internal/bgp"
)

// The golden fixtures pin the checkpoint formats: a scripted engine
// checkpoint committed as the JSON render, as binary container v2, and
// as legacy container v1 (read-only: written by a writer since removed),
// plus the state summary all three must restore to. Future codec changes
// that can't read these bytes — or read them into different state — fail
// here instead of silently orphaning every archived checkpoint.
// Regenerate (only after a deliberate, version-bumped format change) with
// MOAS_GEN_GOLDEN=1; that rewrites every fixture except the v1 one.
const (
	goldenJSON     = "testdata/checkpoint_v1.json"
	goldenBinary   = "testdata/checkpoint_v1.mckpt"
	goldenBinaryV2 = "testdata/checkpoint_v2.mckpt"
	goldenExpect   = "testdata/checkpoint_v1.expect.json"
)

// goldenSummary is the restored-state image the fixtures are compared
// against: the replay cursor plus the full conflict registry.
type goldenSummary struct {
	LastClosedDay   int              `json:"last_closed_day"`
	Messages        uint64           `json:"messages"`
	Ops             uint64           `json:"ops"`
	Records         uint64           `json:"records"`
	Events          int              `json:"events"`
	ActiveConflicts int              `json:"active_conflicts"`
	Conflicts       []goldenConflict `json:"conflicts"`
}

type goldenConflict struct {
	Prefix       string    `json:"prefix"`
	FirstDay     int       `json:"first_day"`
	LastDay      int       `json:"last_day"`
	DaysObserved int       `json:"days_observed"`
	OriginsEver  []bgp.ASN `json:"origins_ever"`
	ClassDays    []int     `json:"class_days"`
}

// summarize extracts the golden image from a restored engine.
func summarize(e *Engine) *goldenSummary {
	st := e.Stats()
	sum := &goldenSummary{
		LastClosedDay:   st.LastClosedDay,
		Messages:        st.Messages,
		Ops:             st.Ops,
		Records:         e.Records(),
		Events:          st.Events,
		ActiveConflicts: st.ActiveConflicts,
	}
	for _, c := range e.Registry().Conflicts() {
		sum.Conflicts = append(sum.Conflicts, goldenConflict{
			Prefix:       c.Prefix.String(),
			FirstDay:     c.FirstDay,
			LastDay:      c.LastDay,
			DaysObserved: c.DaysObserved,
			OriginsEver:  c.OriginsEver,
			ClassDays:    c.ClassDays[:],
		})
	}
	return sum
}

func marshalSummary(t testing.TB, sum *goldenSummary) []byte {
	t.Helper()
	blob, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(blob, '\n')
}

// decodeGolden decodes a fixture the way restore paths do: binary when
// it carries the magic, the JSON render otherwise.
func decodeGolden(t testing.TB, blob []byte) *Checkpoint {
	t.Helper()
	if bytes.HasPrefix(blob, checkpointMagic) {
		ck, err := DecodeCheckpointBinary(blob)
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}
	var ck Checkpoint
	if err := json.Unmarshal(blob, &ck); err != nil {
		t.Fatal(err)
	}
	return &ck
}

// TestGoldenCheckpointsRestore is the compatibility battery: the
// committed fixtures (JSON render, legacy binary container v1, binary
// container v2) must all still decode and restore to exactly the same
// committed state summary and the per-peer route table the JSON fixture
// lists, and the restored engines must re-checkpoint to identical bytes.
// All three fixtures image the same engine, so one expectation serves.
// The JSON fixture must also survive a decode/encode round trip byte for
// byte, which pins the HTTP payload's field names and value forms.
func TestGoldenCheckpointsRestore(t *testing.T) {
	want, err := os.ReadFile(goldenExpect)
	if err != nil {
		t.Fatalf("missing golden expectation (regenerate with MOAS_GEN_GOLDEN=1): %v", err)
	}
	jsonFixture, err := os.ReadFile(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	var wantRoutes struct {
		Routes json.RawMessage `json:"routes"`
	}
	if err := json.Unmarshal(jsonFixture, &wantRoutes); err != nil {
		t.Fatal(err)
	}
	rendered, err := json.Marshal(decodeGolden(t, jsonFixture))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rendered, bytes.TrimSuffix(jsonFixture, []byte("\n"))) {
		t.Fatalf("%s does not re-render to its own bytes:\nwant %s\n got %s", goldenJSON, jsonFixture, rendered)
	}

	var firstCk []byte
	for _, path := range []string{goldenJSON, goldenBinary, goldenBinaryV2} {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden fixture: %v", err)
		}
		e, err := NewFromCheckpoint(Config{Shards: 2}, decodeGolden(t, blob))
		if err != nil {
			t.Fatalf("%s no longer restores: %v", path, err)
		}
		got := marshalSummary(t, summarize(e))
		if !bytes.Equal(want, got) {
			t.Fatalf("%s restores to different state than committed:\nwant %s\n got %s", path, want, got)
		}
		reck := e.Checkpoint()
		e.Close()
		routes, err := json.Marshal(reck.Routes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(routes, wantRoutes.Routes) {
			t.Fatalf("%s restores a different route table:\nwant %s\n got %s", path, wantRoutes.Routes, routes)
		}
		bin, err := AppendCheckpointBinary(nil, reck)
		if err != nil {
			t.Fatal(err)
		}
		if firstCk == nil {
			firstCk = bin
		} else if !bytes.Equal(firstCk, bin) {
			t.Fatalf("%s re-checkpoints to different bytes than %s", path, goldenJSON)
		}
	}
}

// TestGenerateGoldenCheckpoints rewrites the fixtures from the current
// codecs; a skip unless MOAS_GEN_GOLDEN=1. The v1 fixture is left alone:
// nothing writes container v1 any more.
func TestGenerateGoldenCheckpoints(t *testing.T) {
	if os.Getenv("MOAS_GEN_GOLDEN") == "" {
		t.Skip("set MOAS_GEN_GOLDEN=1 to regenerate golden checkpoints")
	}
	ck := tinyCheckpoint(t)
	if err := os.MkdirAll(filepath.Dir(goldenJSON), 0o755); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenJSON, append(js, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	binV2, err := AppendCheckpointBinary(nil, ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenBinaryV2, binV2, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := NewFromCheckpoint(Config{Shards: 2}, ck)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := os.WriteFile(goldenExpect, marshalSummary(t, summarize(e)), 0o644); err != nil {
		t.Fatal(err)
	}
}
