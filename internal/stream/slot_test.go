package stream

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/kernel"
)

// TestSlotRecycleKeepsLifecycle: a conflicted prefix that is fully
// withdrawn keeps its slot (no routes, lifecycle kept) while
// single-origin prefixes churn through recycled slots; re-announced, it
// continues its Seq with its /prefix history intact, and a prefix that
// takes over a recycled slot inherits nothing from its previous owner.
func TestSlotRecycleKeepsLifecycle(t *testing.T) {
	e := New(Config{Shards: 1})
	defer e.Close()
	peerA := PeerKey{IP: [16]byte{10, 0, 0, 1}, AS: 701}
	peerB := PeerKey{IP: [16]byte{10, 0, 0, 2}, AS: 3356}
	announce := func(day int, peer PeerKey, origin bgp.ASN, ps ...bgp.Prefix) {
		e.ApplyUpdate(day, peer, &bgp.Update{Attrs: &bgp.Attrs{ASPath: bgp.Seq(peer.AS, origin)}, NLRI: ps})
	}
	withdraw := func(day int, peer PeerKey, ps ...bgp.Prefix) {
		e.ApplyUpdate(day, peer, &bgp.Update{Withdrawn: ps})
	}

	p := bgp.MustParsePrefix("192.0.2.0/24")
	announce(0, peerA, 64500, p)
	announce(0, peerB, 64501, p)
	e.CloseDay(0)
	withdraw(1, peerA, p)
	withdraw(1, peerB, p)
	e.CloseDay(1)
	e.Sync()
	if info := e.Prefix(p); info.Routes != 0 || info.Active || len(info.History) != 2 {
		t.Fatalf("withdrawn conflict: routes=%d active=%v history=%d, want 0/false/2",
			info.Routes, info.Active, len(info.History))
	}

	// Two alternating halves of a churn set: each day one half is
	// announced and withdrawn, so the other half's freed slots change
	// owners every day.
	churn := make([]bgp.Prefix, 64)
	for i := range churn {
		churn[i] = bgp.MustParsePrefix(fmt.Sprintf("198.51.%d.0/24", i))
	}
	for day := 2; day < 8; day++ {
		half := churn[day%2*32 : day%2*32+32]
		announce(day, peerA, bgp.ASN(65000+day), half...)
		withdraw(day, peerA, half...)
		e.CloseDay(day)
	}
	e.Sync()
	if st := e.Stats(); st.KernelStates != 33 || st.Slots != 1 {
		t.Fatalf("after churn: %d slots carved, %d in use, want 33 (p + one churn half) and 1 (p)",
			st.KernelStates, st.Slots)
	}

	announce(8, peerB, 64999, churn[0])
	e.Sync()
	q := e.Prefix(churn[0])
	if q.Routes != 1 || !reflect.DeepEqual(q.Origins, []bgp.ASN{64999}) || len(q.History) != 0 || q.Active || q.Conflict != nil {
		t.Fatalf("recycled slot leaked state into %v: %+v", churn[0], q)
	}

	announce(9, peerA, 64500, p)
	announce(9, peerB, 64502, p)
	e.CloseDay(9)
	e.Sync()
	srv := httptest.NewServer(NewAPI(e))
	defer srv.Close()
	var got prefixJSON
	getJSON(t, srv.Client(), srv.URL+"/prefix/192.0.2.0/24", &got)
	type step struct {
		Type string
		Day  int
		Seq  uint64
	}
	var steps []step
	for _, ev := range got.History {
		steps = append(steps, step{ev.Type, ev.Day, ev.Seq})
	}
	want := []step{{"conflict-start", 0, 1}, {"conflict-end", 1, 2}, {"conflict-start", 9, 3}}
	if !reflect.DeepEqual(steps, want) {
		t.Fatalf("/prefix history = %+v, want %+v", steps, want)
	}
	if !got.Active || got.Routes != 2 || !reflect.DeepEqual(got.Origins, []bgp.ASN{64500, 64502}) ||
		got.DaysObserved != 2 || !reflect.DeepEqual(got.OriginsEver, []bgp.ASN{64500, 64501, 64502}) {
		t.Fatalf("/prefix after re-announce: %+v", got)
	}
}

// TestSlotRecycleHostileRestore: a restored state with two origins and
// Seq 0 is the one lifecycle-free state that can emit an event. Its
// withdrawal emits the conflict-end, drops the state and recycles the
// slot without a panic, and the prefix that takes the slot over starts
// clean.
func TestSlotRecycleHostileRestore(t *testing.T) {
	h := bgp.MustParsePrefix("203.0.113.0/24")
	peer := PeerKey{IP: [16]byte{10, 0, 0, 1}, AS: 701}
	ck := &Checkpoint{
		Version:       CheckpointVersion,
		LastClosedDay: -1,
		Kernel: &kernel.Snapshot{
			Version:  kernel.SnapshotVersion,
			Prefixes: []kernel.PrefixSnap{{Prefix: h, Origins: []bgp.ASN{1, 2}, Class: uint8(core.ClassDistinctPaths)}},
		},
		Routes: []PrefixRoutes{{Prefix: h, Routes: []PeerRouteSnap{{
			PeerIP: peer.IP[:],
			PeerAS: peer.AS,
			Attrs:  (&bgp.Attrs{ASPath: bgp.Seq(701, 1)}).AppendWireEx(nil, true),
		}}}},
	}
	e, err := NewFromCheckpoint(Config{Shards: 1}, ck)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if st := e.Stats(); st.ActiveConflicts != 1 || st.Slots != 1 {
		t.Fatalf("restored: %d active, %d slots, want 1/1", st.ActiveConflicts, st.Slots)
	}

	e.ApplyUpdate(0, peer, &bgp.Update{Withdrawn: []bgp.Prefix{h}})
	e.Sync()
	evs := e.Events()
	if len(evs) != 1 || evs[0].Type != kernel.EventConflictEnd || evs[0].Seq != 1 {
		t.Fatalf("withdrawal events = %+v, want one conflict-end with Seq 1", evs)
	}
	if info := e.Prefix(h); info.Routes != 0 || info.Active || len(info.History) != 0 {
		t.Fatalf("dropped state still visible: %+v", info)
	}
	if st := e.Stats(); st.ActiveConflicts != 0 || st.Slots != 0 || st.KernelStates != 1 {
		t.Fatalf("after drop: %d active, %d slots in use, %d carved, want 0/0/1",
			st.ActiveConflicts, st.Slots, st.KernelStates)
	}

	q := bgp.MustParsePrefix("198.51.100.0/24")
	e.ApplyUpdate(1, peer, &bgp.Update{Attrs: &bgp.Attrs{ASPath: bgp.Seq(701, 64999)}, NLRI: []bgp.Prefix{q}})
	e.Sync()
	info := e.Prefix(q)
	if !reflect.DeepEqual(info.Origins, []bgp.ASN{64999}) || info.Active || len(info.History) != 0 || info.Routes != 1 {
		t.Fatalf("recycled slot leaked state into %v: %+v", q, info)
	}
	if st := e.Stats(); st.KernelStates != 1 || st.Slots != 1 {
		t.Fatalf("takeover: %d carved, %d in use, want 1/1", st.KernelStates, st.Slots)
	}
}
