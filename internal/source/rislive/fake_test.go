package rislive

import (
	"strings"
	"testing"
	"time"
)

// TestFakeNewestConnectionWins: a second client attaching while the
// first is still connected replaces it. The first connection is closed,
// the feed reaches the second, and the fake survives the hand-over (its
// attach signal is closed only on the nil→attached transition, never
// twice).
func TestFakeNewestConnectionWins(t *testing.T) {
	f, err := NewFake()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	first, err := wsDial(f.URL(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer first.conn.Close()
	if err := f.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	second, err := wsDial(f.URL(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer second.conn.Close()

	// The hand-over closes the first connection, so its read fails once
	// the second is attached.
	first.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := first.readMessage(); err == nil {
		t.Fatal("first connection still open after a second client attached")
	}
	if n := f.Connects(); n != 2 {
		t.Fatalf("Connects() = %d, want 2", n)
	}
	if err := f.Send(Msg{Timestamp: 100, Peer: "192.0.2.9", PeerASN: 65001, Withdrawals: []string{"10.0.0.0/8"}}); err != nil {
		t.Fatal(err)
	}
	second.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	op, payload, err := second.readMessage()
	if err != nil {
		t.Fatalf("newest connection did not receive the feed: %v", err)
	}
	if op != opText || !strings.Contains(string(payload), `"ris_message"`) {
		t.Fatalf("newest connection got op %d payload %s", op, payload)
	}
}
