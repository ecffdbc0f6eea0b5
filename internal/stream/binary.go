package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"moas/internal/bgp"
	"moas/internal/binenc"
	"moas/internal/kernel"
)

// The binary checkpoint format — the one wire form of Checkpoint, which
// the auto-checkpoint loop writes to disk inside serve's MSCK envelope.
// Checkpoint holds typed values (prefixes, raw peer addresses, raw
// attribute wire bytes), so encoding is a straight walk with nothing to
// parse; the structs' JSON rendering is only the HTTP checkpoint payload.
//
// The container carries its own format version after the magic, separate
// from the Checkpoint struct version it stores:
//
//	container v1 (legacy, read-only — older MSCK files hold it):
//	  magic "MCKP" | uvarint struct version
//	  frame: cursor — varint lastClosedDay, uvarint messages/ops/records
//	  frame: kernel — the kernel snapshot in its own binary format
//	  frame: routes — uvarint prefix count, then per prefix:
//	                  prefix, uvarint route count, then per route:
//	                  16-byte peer IP, uvarint peer AS,
//	                  uvarint length + raw attribute wire bytes
//
//	container v2 (the one AppendCheckpointBinary writes):
//	  magic "MCKP" | uvarint 2 | uvarint struct version
//	  frame: cursor — as v1
//	  frame: kernel — as v1
//	  frame: attrs — uvarint block count, then per block:
//	                 uvarint length + raw attribute wire bytes
//	  frame: routes — uvarint prefix count, then per prefix:
//	                  prefix, uvarint route count, then per route:
//	                  16-byte peer IP, uvarint peer AS,
//	                  uvarint attrs-block index
//
// v2 exploits the same redundancy the ingest interner does: a table's
// routes share a small set of distinct attribute blocks, so each block is
// written once and routes reference it by index. Blocks are indexed by
// content, not by slice identity: after a restore, the restore interner
// and the live interner hold different pointers for the same block. The
// v1 value in the version slot can never be 2 (it was the struct version,
// fixed at 1), so one uvarint read disambiguates the containers.

// checkpointMagic introduces a binary engine checkpoint.
var checkpointMagic = []byte("MCKP")

// checkpointContainerV2 is the container format version introduced with
// the shared attrs-block table.
const checkpointContainerV2 = 2

// AppendCheckpointBinary appends ck's binary encoding — container v2,
// with the shared attrs-block table — to dst. It fails only on a
// checkpoint without a kernel snapshot or with a peer address that is not
// 16 bytes, neither of which Engine.Checkpoint produces.
func AppendCheckpointBinary(dst []byte, ck *Checkpoint) ([]byte, error) {
	if ck.Kernel == nil {
		return nil, fmt.Errorf("stream: checkpoint has no kernel snapshot")
	}
	ksec := kernel.AppendSnapshotBinary(nil, ck.Kernel)

	nroutes := 0
	for i := range ck.Routes {
		nroutes += len(ck.Routes[i].Routes)
	}
	// One pass: each route's block is looked up by content, and a block
	// seen for the first time is appended to the table body.
	blockIdx := make(map[string]uint64, 256)
	var blocks []byte
	rsec := make([]byte, 0, 24*len(ck.Routes)+20*nroutes+8)
	rsec = binary.AppendUvarint(rsec, uint64(len(ck.Routes)))
	for i := range ck.Routes {
		pr := &ck.Routes[i]
		rsec = binenc.AppendPrefix(rsec, pr.Prefix)
		rsec = binary.AppendUvarint(rsec, uint64(len(pr.Routes)))
		for j := range pr.Routes {
			rt := &pr.Routes[j]
			if len(rt.PeerIP) != 16 {
				return nil, fmt.Errorf("stream: encode peer ip for %v: %d bytes, want 16", pr.Prefix, len(rt.PeerIP))
			}
			idx, ok := blockIdx[string(rt.Attrs)]
			if !ok {
				idx = uint64(len(blockIdx))
				blockIdx[string(rt.Attrs)] = idx
				blocks = binary.AppendUvarint(blocks, uint64(len(rt.Attrs)))
				blocks = append(blocks, rt.Attrs...)
			}
			rsec = append(rsec, rt.PeerIP...)
			rsec = binary.AppendUvarint(rsec, uint64(rt.PeerAS))
			rsec = binary.AppendUvarint(rsec, idx)
		}
	}
	asec := binary.AppendUvarint(make([]byte, 0, len(blocks)+binary.MaxVarintLen64), uint64(len(blockIdx)))
	asec = append(asec, blocks...)

	var cur []byte
	cur = binary.AppendVarint(cur, int64(ck.LastClosedDay))
	cur = binary.AppendUvarint(cur, ck.Messages)
	cur = binary.AppendUvarint(cur, ck.Ops)
	cur = binary.AppendUvarint(cur, ck.Records)

	if dst == nil {
		dst = make([]byte, 0, len(ksec)+len(asec)+len(rsec)+96)
	}
	dst = append(dst, checkpointMagic...)
	dst = binary.AppendUvarint(dst, checkpointContainerV2)
	dst = binary.AppendUvarint(dst, uint64(ck.Version))
	dst = binenc.AppendFrame(dst, cur)
	dst = binenc.AppendFrame(dst, ksec)
	dst = binenc.AppendFrame(dst, asec)
	dst = binenc.AppendFrame(dst, rsec)
	return dst, nil
}

// DecodeCheckpointBinary parses a binary checkpoint — either container
// version — and validates its struct version. Hostile input errors; it
// never panics or over-allocates. The result borrows from data: peer
// addresses and attribute blocks alias it (v2 routes of one block share
// a slice), so data must stay unmodified while the checkpoint is in use.
func DecodeCheckpointBinary(data []byte) (*Checkpoint, error) {
	if !bytes.HasPrefix(data, checkpointMagic) {
		return nil, fmt.Errorf("stream: not a binary checkpoint (bad magic)")
	}
	r := binenc.NewReader(data[len(checkpointMagic):])
	// Container v1 stored the struct version (always 1) in this slot, so
	// the value doubles as the container discriminator.
	v2 := false
	ck := &Checkpoint{Version: int(r.Uvarint())}
	if r.Err() == nil && ck.Version == checkpointContainerV2 {
		v2 = true
		ck.Version = int(r.Uvarint())
	}
	if r.Err() == nil && ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("stream: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	}

	cur := r.Frame()
	ck.LastClosedDay = cur.Int()
	ck.Messages = cur.Uvarint()
	ck.Ops = cur.Uvarint()
	ck.Records = cur.Uvarint()
	if err := binenc.FirstErr(cur, r); err != nil {
		return nil, fmt.Errorf("stream: decode checkpoint cursor: %w", err)
	}

	ksec := r.Frame()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("stream: decode checkpoint kernel: %w", err)
	}
	snap, err := kernel.DecodeSnapshotBinary(ksec.Bytes(ksec.Len()))
	if err != nil {
		return nil, err
	}
	ck.Kernel = snap

	// v2: the shared attrs-block table the route entries index into.
	var blocks []HexBytes
	if v2 {
		asec := r.Frame()
		nb := asec.Count(1)
		blocks = make([]HexBytes, nb)
		for i := 0; i < nb; i++ {
			blocks[i] = asec.Bytes(asec.Count(1))
		}
		if err := binenc.FirstErr(asec, r); err != nil {
			return nil, fmt.Errorf("stream: decode checkpoint attrs table: %w", err)
		}
	}

	sec := r.Frame()
	// A route entry is at least 3 bytes (2-byte prefix, zero routes).
	if n := sec.Count(3); n > 0 {
		ck.Routes = make([]PrefixRoutes, n)
	}
	for i := range ck.Routes {
		pr := &ck.Routes[i]
		pr.Prefix = sec.Prefix()
		// Minimum bytes per route: 16-byte IP + AS + (v1: empty attrs
		// length | v2: block index) = 18 either way.
		nr := sec.Count(18)
		pr.Routes = make([]PeerRouteSnap, nr)
		for j := range pr.Routes {
			rt := &pr.Routes[j]
			rt.PeerIP = sec.Bytes(16)
			rt.PeerAS = bgp.ASN(sec.Uvarint())
			if v2 {
				idx := sec.Uvarint()
				if sec.Err() == nil {
					if idx >= uint64(len(blocks)) {
						return nil, fmt.Errorf("stream: checkpoint attrs index %d beyond %d-block table", idx, len(blocks))
					}
					rt.Attrs = blocks[idx]
				}
			} else {
				rt.Attrs = sec.Bytes(sec.Count(1))
			}
		}
	}
	if err := binenc.FirstErr(sec, r); err != nil {
		return nil, fmt.Errorf("stream: decode checkpoint routes: %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("stream: %d trailing bytes after binary checkpoint", r.Len())
	}
	return ck, nil
}
