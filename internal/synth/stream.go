package synth

import (
	"io"

	"moas/internal/bgp"
	"moas/internal/mrt"
)

// baselineBlocksPerUnit bounds how many background blocks one Read-side
// generation unit emits, keeping the internal buffer (and so Stream's
// memory high-water mark) a few hundred KB regardless of table size.
const baselineBlocksPerUnit = 256

// emitter turns route-level intents (announce/withdraw) into MRT-framed
// BGP4MP UPDATE bytes in a reusable buffer. All scratch — the attrs
// block, the 3-hop path, the NLRI block — is fixed-size and recycled per
// update, which is what lets the generator stream a million-prefix table
// without holding it.
type emitter struct {
	buf  []byte // framed MRT records, drained by Stream.Read
	msg  []byte // scratch: one BGP message
	body []byte // scratch: one BGP4MP body
	ts   uint32

	attrs bgp.Attrs
	upd   bgp.Update
	ases  [3]bgp.ASN
	segs  [1]bgp.Segment
	nlri  [blockSize]bgp.Prefix
	one   [1]bgp.Prefix
}

// path3 builds the canonical synth path (first, mid, origin) in scratch;
// valid until the next path3 call, which every emit consumes before.
func (em *emitter) path3(first, mid, origin bgp.ASN) bgp.Path {
	em.ases = [3]bgp.ASN{first, mid, origin}
	em.segs[0] = bgp.Segment{Type: bgp.SegSequence, ASes: em.ases[:]}
	return bgp.Path(em.segs[:])
}

// onePrefix wraps a single prefix in scratch NLRI.
func (em *emitter) onePrefix(p bgp.Prefix) []bgp.Prefix {
	em.one[0] = p
	return em.one[:1]
}

// blockNLRI fills scratch with block b's prefixes (clipped to the table).
func (em *emitter) blockNLRI(b, tablePrefixes int) []bgp.Prefix {
	n := blockSize
	if rem := tablePrefixes - b*blockSize; rem < n {
		n = rem
	}
	for j := 0; j < n; j++ {
		em.nlri[j] = backgroundPrefix(b*blockSize + j)
	}
	return em.nlri[:n]
}

// Announce emits one UPDATE from vantage v carrying nlri with the given
// AS path. Exported through the Pattern emit hook.
func (em *emitter) Announce(v int, path bgp.Path, nlri []bgp.Prefix) {
	em.attrs = bgp.Attrs{
		Origin:  bgp.OriginIGP,
		ASPath:  path,
		NextHop: [4]byte{10, byte(v >> 8), byte(v), 1},
	}
	em.upd = bgp.Update{Attrs: &em.attrs, NLRI: nlri}
	em.record(v, &em.upd)
}

// Withdraw emits one withdraw-only UPDATE from vantage v.
func (em *emitter) Withdraw(v int, nlri []bgp.Prefix) {
	em.upd = bgp.Update{Withdrawn: nlri}
	em.record(v, &em.upd)
}

func (em *emitter) record(v int, u *bgp.Update) {
	em.msg = u.AppendWire(em.msg[:0])
	m := mrt.BGP4MPMessage{
		PeerAS:  vantageAS(v),
		LocalAS: localAS,
		Family:  bgp.FamilyIPv4,
		PeerIP:  vantageIP(v),
		LocalIP: localIP,
		Data:    em.msg,
	}
	em.body = m.AppendBody(em.body[:0])
	h := mrt.Header{
		Timestamp: em.ts,
		Type:      mrt.TypeBGP4MP,
		Subtype:   mrt.SubtypeMessage,
		Length:    uint32(len(em.body)),
	}
	em.buf = h.AppendHeader(em.buf)
	em.buf = append(em.buf, em.body...)
}

// Stream generation stages, cycled per day.
const (
	stageBaseline = iota // day 0 only: full-table announcements
	stagePatterns        // every day: one pattern emit each
	stageChurn           // days >= 1: background withdraw/re-announce
)

// Stream is the workload generator: an io.Reader over the MRT archive a
// Config describes. Bytes are produced in bounded units as they are
// read, never all at once. Not safe for concurrent Read; a Pattern
// value may be shared across sequentially-created Streams (plan resets
// its state) but not across concurrently-read ones.
type Stream struct {
	cfg     Config
	truth   []Episode
	planned int // pattern prefixes allocated by the plan
	em      emitter
	off     int
	nblocks int

	day   int
	stage int
	vtx   int // baseline: vantage cursor
	blk   int // baseline: block cursor within vtx
	pi    int // patterns: pattern cursor
	done  bool
}

// NewStream plans the workload (allocating pattern prefixes and the
// ground-truth episode log) and returns a reader positioned at byte 0.
func NewStream(cfg Config) (*Stream, error) {
	s := &Stream{cfg: cfg.withDefaults()}
	s.nblocks = (s.cfg.Prefixes + blockSize - 1) / blockSize
	pl := &planner{cfg: &s.cfg}
	for _, p := range s.cfg.Patterns {
		p.plan(&s.cfg, pl)
	}
	if err := pl.err; err != nil {
		return nil, err
	}
	sortEpisodes(pl.truth)
	s.truth = pl.truth
	s.planned = int(pl.next)
	s.em.ts = dayTime(0)
	return s, nil
}

// Truth returns the ground-truth episode log, sorted canonically
// (prefix, start day, pattern). Callers must not mutate it.
func (s *Stream) Truth() []Episode { return s.truth }

// Days reports the (defaulted) observation-day count.
func (s *Stream) Days() int { return s.cfg.Days }

// Prefixes reports how many distinct prefixes the archive announces: the
// background table plus every prefix the patterns planned.
func (s *Stream) Prefixes() int { return s.cfg.Prefixes + s.planned }

// Config returns the defaulted configuration the stream runs.
func (s *Stream) Config() Config { return s.cfg }

// Read drains generated MRT bytes, producing the next unit on demand.
func (s *Stream) Read(p []byte) (int, error) {
	for s.off >= len(s.em.buf) {
		if s.done {
			return 0, io.EOF
		}
		s.em.buf = s.em.buf[:0]
		s.off = 0
		s.next()
	}
	n := copy(p, s.em.buf[s.off:])
	s.off += n
	return n, nil
}

// next advances the generation state machine by one unit. A unit may
// emit nothing (a pattern idle that day); Read loops until bytes appear
// or the stream completes. Every day emits at least one record — day 0
// the baseline, later days the churn stage (ChurnPerDay >= 1) — keeping
// the day axis dense for calendar agreement.
func (s *Stream) next() {
	c := &s.cfg
	switch s.stage {
	case stageBaseline:
		hi := s.blk + baselineBlocksPerUnit
		if hi > s.nblocks {
			hi = s.nblocks
		}
		for b := s.blk; b < hi; b++ {
			nlri := s.em.blockNLRI(b, c.Prefixes)
			h := c.hash(tagBackground, uint64(b))
			path := s.em.path3(vantageAS(s.vtx), transitAS(h), c.originAS(h>>16))
			s.em.Announce(s.vtx, path, nlri)
		}
		s.blk = hi
		if s.blk >= s.nblocks {
			s.blk = 0
			s.vtx++
			if s.vtx >= c.Vantages {
				s.stage, s.pi = stagePatterns, 0
			}
		}
	case stagePatterns:
		if s.pi < len(c.Patterns) {
			c.Patterns[s.pi].emit(c, s.day, &s.em)
			s.pi++
			return
		}
		if s.day >= c.Days-1 {
			s.done = true
			return
		}
		s.day++
		s.em.ts = dayTime(s.day)
		s.stage = stageChurn
	case stageChurn:
		for i := 0; i < c.ChurnPerDay; i++ {
			h := c.hash(tagChurn, uint64(s.day), uint64(i))
			b := int(h % uint64(s.nblocks))
			v := int((h >> 48) % uint64(c.Vantages))
			nlri := s.em.blockNLRI(b, c.Prefixes)
			s.em.Withdraw(v, nlri)
			// Re-announce with the block's canonical attrs: the origin set
			// is restored identically, so churn never perturbs ground truth.
			hb := c.hash(tagBackground, uint64(b))
			path := s.em.path3(vantageAS(v), transitAS(hb), c.originAS(hb>>16))
			s.em.Announce(v, path, nlri)
		}
		s.stage, s.pi = stagePatterns, 0
	}
}
