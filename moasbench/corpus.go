package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"

	"moas/internal/bgp"
	"moas/internal/mrt"
	"moas/internal/source/rislive"
	"moas/internal/stream"
	"moas/internal/synth"
)

// replayCorpus is an MRT update archive on disk plus its ground truth.
type replayCorpus struct {
	path  string
	bytes int64
	days  int
	truth []synth.Episode
}

// writeReplayCorpus streams the synth archive for cfg into path.
func writeReplayCorpus(cfg synth.Config, path string) (*replayCorpus, error) {
	gen, err := synth.NewStream(cfg)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n, err := io.Copy(w, gen)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("generate %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return &replayCorpus{path: path, bytes: n, days: gen.Days(), truth: gen.Truth()}, nil
}

// mrtHeaderLen is the MRT common header: timestamp, type, subtype, length.
const mrtHeaderLen = 12

// liveCorpus is a synth workload converted into RIS Live messages, one
// message per UPDATE, stamped from a real UTC day forward so the live
// run's wall-clock day logic never closes a day early.
type liveCorpus struct {
	msgs    []rislive.Msg
	mrt     []byte // the same updates as an MRT archive, with the trailer
	dayBase int    // absolute UTC day of synth day 0
	days    int
	truth   []synth.Episode
	trigger map[eventKey]int // lifecycle event -> index of the message that fires it
	events  []eventKey       // the trigger keys in firing order
}

// eventKey names one lifecycle event: a prefix's per-prefix ordinal.
type eventKey struct {
	prefix bgp.Prefix
	seq    uint64
}

// spareWithdraw is the prefix the trailing day-closing message withdraws:
// outside every synth region, so withdrawing it changes no state.
var spareWithdraw = bgp.PrefixFromUint32(0xC0000200, 24) // 192.0.2.0/24

// buildLiveCorpus generates cfg, shifts it to start at absolute day
// dayBase, appends one trailing message in the day after the last so the
// final observed day closes, and runs a reference engine over the result
// to learn which message fires every lifecycle event.
func buildLiveCorpus(cfg synth.Config, dayBase int) (*liveCorpus, error) {
	gen, err := synth.NewStream(cfg)
	if err != nil {
		return nil, err
	}
	var raw bytes.Buffer
	if _, err := io.Copy(&raw, gen); err != nil {
		return nil, fmt.Errorf("generate live corpus: %w", err)
	}
	lc := &liveCorpus{dayBase: dayBase, days: gen.Days(), truth: gen.Truth()}
	shift := uint32(dayBase) * 86400
	archive := raw.Bytes()
	// Shift every record's timestamp in place, then append the trailer.
	for off := 0; off+mrtHeaderLen <= len(archive); {
		ts := binary.BigEndian.Uint32(archive[off:])
		binary.BigEndian.PutUint32(archive[off:], ts+shift)
		off += mrtHeaderLen + int(binary.BigEndian.Uint32(archive[off+8:]))
	}
	lc.mrt = appendTrailer(archive, uint32(dayBase+lc.days)*86400)

	var mu sync.Mutex
	var fired []eventKey
	ref := stream.New(stream.Config{Shards: 1, DisableEventLog: true, OnEvent: func(ev stream.Event) {
		mu.Lock()
		fired = append(fired, eventKey{ev.Prefix, ev.Seq})
		mu.Unlock()
	}})
	defer ref.Close()
	lc.trigger = make(map[eventKey]int)

	fr := mrt.NewFramer(bytes.NewReader(lc.mrt))
	var body []byte
	var m mrt.BGP4MPMessage
	var upd bgp.Update
	curDay := -1
	for i := 0; ; i++ {
		h, b, err := fr.NextInto(body[:0])
		body = b
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := decodeUpdate(&m, &upd, body, ref.Interner()); err != nil {
			return nil, err
		}
		day := int(h.Timestamp / 86400)
		if curDay < 0 {
			curDay = day
		}
		for curDay < day {
			ref.CloseDay(curDay)
			curDay++
		}
		ref.ApplyUpdate(curDay, stream.PeerKey{IP: m.PeerIP, AS: m.PeerAS}, &upd)
		ref.Sync()
		mu.Lock()
		for _, k := range fired {
			lc.trigger[k] = i
			lc.events = append(lc.events, k)
		}
		fired = fired[:0]
		mu.Unlock()
		lc.msgs = append(lc.msgs, toRISMsg(h.Timestamp, &m, &upd))
	}
	return lc, nil
}

// decodeUpdate decodes one BGP4MP UPDATE record body — the stage the
// replay decode workers run per record.
func decodeUpdate(m *mrt.BGP4MPMessage, upd *bgp.Update, body []byte, in *bgp.AttrsInterner) error {
	if err := m.DecodeBGP4MPMessageBorrow(body); err != nil {
		return err
	}
	typ, mbody, err := bgp.MessageBody(m.Data)
	if err != nil {
		return err
	}
	if typ != bgp.MsgUpdate {
		return fmt.Errorf("corpus record is BGP message type %d, not UPDATE", typ)
	}
	return bgp.DecodeUpdateBodyInto(upd, mbody, in)
}

// appendTrailer appends the day-closing record: vantage 0 withdraws the
// spare prefix at timestamp ts.
func appendTrailer(dst []byte, ts uint32) []byte {
	u := bgp.Update{Withdrawn: []bgp.Prefix{spareWithdraw}}
	m := mrt.BGP4MPMessage{
		PeerAS:  64512,
		LocalAS: 6447,
		Family:  bgp.FamilyIPv4,
		PeerIP:  [16]byte{10, 0, 0, 1},
		LocalIP: [16]byte{198, 32, 255, 254},
		Data:    u.AppendWire(nil),
	}
	body := m.AppendBody(nil)
	h := mrt.Header{Timestamp: ts, Type: mrt.TypeBGP4MP, Subtype: mrt.SubtypeMessage, Length: uint32(len(body))}
	dst = h.AppendHeader(dst)
	return append(dst, body...)
}

// toRISMsg renders one decoded UPDATE in the RIS Live message shape.
func toRISMsg(ts uint32, m *mrt.BGP4MPMessage, u *bgp.Update) rislive.Msg {
	msg := rislive.Msg{
		Timestamp: float64(ts),
		Peer:      ipv4String(m.PeerIP[:4]),
		PeerASN:   uint32(m.PeerAS),
	}
	for _, p := range u.Withdrawn {
		msg.Withdrawals = append(msg.Withdrawals, p.String())
	}
	if u.Attrs != nil && len(u.NLRI) > 0 {
		for _, seg := range u.Attrs.ASPath {
			if seg.Type == bgp.SegSet {
				set := make([]uint32, len(seg.ASes))
				for i, a := range seg.ASes {
					set[i] = uint32(a)
				}
				msg.Path = append(msg.Path, set)
				continue
			}
			for _, a := range seg.ASes {
				msg.Path = append(msg.Path, uint32(a))
			}
		}
		switch u.Attrs.Origin {
		case bgp.OriginIGP:
			msg.Origin = "igp"
		case bgp.OriginEGP:
			msg.Origin = "egp"
		default:
			msg.Origin = "incomplete"
		}
		ann := rislive.Announcement{NextHop: ipv4String(u.Attrs.NextHop[:])}
		for _, p := range u.NLRI {
			ann.Prefixes = append(ann.Prefixes, p.String())
		}
		msg.Announcements = []rislive.Announcement{ann}
	}
	return msg
}

func ipv4String(b []byte) string {
	return strconv.Itoa(int(b[0])) + "." + strconv.Itoa(int(b[1])) + "." +
		strconv.Itoa(int(b[2])) + "." + strconv.Itoa(int(b[3]))
}
