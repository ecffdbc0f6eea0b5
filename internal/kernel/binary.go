package kernel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"moas/internal/bgp"
	"moas/internal/binenc"
)

// The binary snapshot format — the one wire form of Snapshot, which the
// engine checkpoint (stream's MCKP container) embeds as its kernel
// section. The Snapshot structs are typed (prefixes are bgp.Prefix
// values), so encoding is a straight walk with nothing to parse or fail
// on; their JSON rendering is only the HTTP checkpoint payload's. Layout:
//
//	magic "MSNP" | uvarint version
//	frame: meta      — uvarint event count
//	frame: prefixes  — uvarint count, then per prefix:
//	                   prefix, origin set, class, uvarint seq,
//	                   varint since, uvarint history count + events
//	frame: conflicts — uvarint count, then per conflict:
//	                   prefix, varint first/last/daysObserved,
//	                   origin set, uvarint class count + varint days
//	frame: spans     — uvarint count, then varint start, varint end
//	frame: log       — uvarint count + events
//
// where a prefix is binenc.AppendPrefix's compact form, an origin set is
// a uvarint count followed by uvarint ASNs, and an event is: type byte,
// varint day, uvarint seq, prefix, origin set, previous origin set,
// class byte, previous class byte. Every section is length-prefixed
// (binenc.AppendFrame) and every count is validated against the bytes
// remaining, so truncated or fuzzed input fails cleanly.

// snapshotMagic introduces a binary kernel snapshot.
var snapshotMagic = []byte("MSNP")

func appendASNs(dst []byte, asns []bgp.ASN) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(asns)))
	for _, a := range asns {
		dst = binary.AppendUvarint(dst, uint64(a))
	}
	return dst
}

func readASNs(r *binenc.Reader) []bgp.ASN {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]bgp.ASN, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, bgp.ASN(r.Uvarint()))
	}
	return out
}

func appendEventSnap(dst []byte, ev *EventSnap) []byte {
	dst = append(dst, ev.Type)
	dst = binary.AppendVarint(dst, int64(ev.Day))
	dst = binary.AppendUvarint(dst, ev.Seq)
	dst = binenc.AppendPrefix(dst, ev.Prefix)
	dst = appendASNs(dst, ev.Origins)
	dst = appendASNs(dst, ev.PrevOrigins)
	return append(dst, ev.Class, ev.PrevClass)
}

func readEventSnap(r *binenc.Reader) EventSnap {
	ev := EventSnap{Type: r.Byte(), Day: r.Int(), Seq: r.Uvarint()}
	ev.Prefix = r.Prefix()
	ev.Origins = readASNs(r)
	ev.PrevOrigins = readASNs(r)
	ev.Class = r.Byte()
	ev.PrevClass = r.Byte()
	return ev
}

func appendEventSnaps(dst []byte, evs []EventSnap) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(evs)))
	for i := range evs {
		dst = appendEventSnap(dst, &evs[i])
	}
	return dst
}

func readEventSnaps(r *binenc.Reader) []EventSnap {
	// An event is at least 9 bytes: type, day, seq, a 2-byte /0 prefix,
	// two empty origin sets, two classes.
	n := r.Count(9)
	if n == 0 {
		return nil
	}
	out := make([]EventSnap, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, readEventSnap(r))
	}
	return out
}

// snapshotSizeHint estimates the encoded size so the encoder's buffer
// grows once instead of doubling its way up (at full-scan scale the
// growth copies and the GC pressure they cause dominate the encode).
func snapshotSizeHint(s *Snapshot) int {
	const evBytes = 56 // generous per-event estimate
	n := 64 + len(s.Conflicts)*56 + len(s.ClosedSpans)*8 + len(s.Log)*evBytes
	for i := range s.Prefixes {
		n += 48 + len(s.Prefixes[i].History)*evBytes
	}
	return n
}

// AppendSnapshotBinary appends s's binary encoding to dst.
func AppendSnapshotBinary(dst []byte, s *Snapshot) []byte {
	if dst == nil {
		dst = make([]byte, 0, snapshotSizeHint(s))
	}
	dst = append(dst, snapshotMagic...)
	dst = binary.AppendUvarint(dst, uint64(s.Version))

	meta := binary.AppendUvarint(nil, uint64(s.Events))
	dst = binenc.AppendFrame(dst, meta)

	// The section scratch is sized for the biggest section up front, so
	// neither it nor dst pays doubling-growth copies mid-encode.
	sec := make([]byte, 0, snapshotSizeHint(s))
	sec = binary.AppendUvarint(sec, uint64(len(s.Prefixes)))
	for i := range s.Prefixes {
		ps := &s.Prefixes[i]
		sec = binenc.AppendPrefix(sec, ps.Prefix)
		sec = appendASNs(sec, ps.Origins)
		sec = append(sec, ps.Class)
		sec = binary.AppendUvarint(sec, ps.Seq)
		sec = binary.AppendVarint(sec, int64(ps.Since))
		sec = appendEventSnaps(sec, ps.History)
	}
	dst = binenc.AppendFrame(dst, sec)

	sec = binary.AppendUvarint(sec[:0], uint64(len(s.Conflicts)))
	for i := range s.Conflicts {
		cs := &s.Conflicts[i]
		sec = binenc.AppendPrefix(sec, cs.Prefix)
		sec = binary.AppendVarint(sec, int64(cs.FirstDay))
		sec = binary.AppendVarint(sec, int64(cs.LastDay))
		sec = binary.AppendVarint(sec, int64(cs.DaysObserved))
		sec = appendASNs(sec, cs.OriginsEver)
		sec = binary.AppendUvarint(sec, uint64(len(cs.ClassDays)))
		for _, d := range cs.ClassDays {
			sec = binary.AppendVarint(sec, int64(d))
		}
	}
	dst = binenc.AppendFrame(dst, sec)

	sec = binary.AppendUvarint(sec[:0], uint64(len(s.ClosedSpans)))
	for _, sp := range s.ClosedSpans {
		sec = binary.AppendVarint(sec, int64(sp.Start))
		sec = binary.AppendVarint(sec, int64(sp.End))
	}
	dst = binenc.AppendFrame(dst, sec)

	sec = appendEventSnaps(sec[:0], s.Log)
	return binenc.AppendFrame(dst, sec)
}

// DecodeSnapshotBinary parses a binary snapshot and validates its
// version. Hostile input errors; it never panics or over-allocates.
func DecodeSnapshotBinary(data []byte) (*Snapshot, error) {
	if !bytes.HasPrefix(data, snapshotMagic) {
		return nil, fmt.Errorf("kernel: not a binary snapshot (bad magic)")
	}
	r := binenc.NewReader(data[len(snapshotMagic):])
	s := &Snapshot{Version: int(r.Uvarint())}
	if r.Err() == nil && s.Version != SnapshotVersion {
		return nil, fmt.Errorf("kernel: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}

	meta := r.Frame()
	s.Events = int(meta.Uvarint())
	if err := binenc.FirstErr(meta, r); err != nil {
		return nil, fmt.Errorf("kernel: decode binary snapshot meta: %w", err)
	}

	sec := r.Frame()
	// A prefix entry is at least 7 bytes (2-byte prefix, empty origin
	// set, class, seq, since, empty history).
	n := sec.Count(7)
	s.Prefixes = slices.Grow(s.Prefixes, n)
	for i := 0; i < n; i++ {
		ps := PrefixSnap{Prefix: sec.Prefix()}
		ps.Origins = readASNs(sec)
		ps.Class = sec.Byte()
		ps.Seq = sec.Uvarint()
		ps.Since = sec.Int()
		ps.History = readEventSnaps(sec)
		s.Prefixes = append(s.Prefixes, ps)
	}
	if err := binenc.FirstErr(sec, r); err != nil {
		return nil, fmt.Errorf("kernel: decode binary snapshot prefixes: %w", err)
	}

	sec = r.Frame()
	n = sec.Count(7)
	s.Conflicts = slices.Grow(s.Conflicts, n)
	for i := 0; i < n; i++ {
		cs := ConflictSnap{Prefix: sec.Prefix()}
		cs.FirstDay = sec.Int()
		cs.LastDay = sec.Int()
		cs.DaysObserved = sec.Int()
		cs.OriginsEver = readASNs(sec)
		nd := sec.Count(1)
		for j := 0; j < nd; j++ {
			cs.ClassDays = append(cs.ClassDays, sec.Int())
		}
		s.Conflicts = append(s.Conflicts, cs)
	}
	if err := binenc.FirstErr(sec, r); err != nil {
		return nil, fmt.Errorf("kernel: decode binary snapshot conflicts: %w", err)
	}

	sec = r.Frame()
	n = sec.Count(2)
	for i := 0; i < n; i++ {
		s.ClosedSpans = append(s.ClosedSpans, SpanSnap{Start: sec.Int(), End: sec.Int()})
	}
	if err := binenc.FirstErr(sec, r); err != nil {
		return nil, fmt.Errorf("kernel: decode binary snapshot spans: %w", err)
	}

	sec = r.Frame()
	s.Log = readEventSnaps(sec)
	if err := binenc.FirstErr(sec, r); err != nil {
		return nil, fmt.Errorf("kernel: decode binary snapshot log: %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("kernel: %d trailing bytes after binary snapshot", r.Len())
	}
	return s, nil
}
