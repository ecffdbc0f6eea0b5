package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"moas/internal/bgp"
	"moas/internal/epilog"
	"moas/internal/mrt"
	"moas/internal/stream"
	"moas/internal/vfs"
)

// tracer keeps the traced run's spans in memory and accumulates each
// layer's call count and self time. Spans are coarse (phases and calls
// into the daemon); per-record stage calls only feed the accumulators,
// so a million-record pass does not hold a million spans.
type tracer struct {
	start  time.Time
	spans  []span
	layers map[string]*layerAcc
}

// span is one timed interval; Parent indexes spans (-1 for a root).
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

type layerAcc struct {
	Count int64   `json:"count"`
	SelfS float64 `json:"self_s"`
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), layers: make(map[string]*layerAcc)}
}

// begin opens a span and returns its index for end. A nil tracer (an
// untraced run) records nothing, here and in end.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.start).Seconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = time.Since(t.start).Seconds()
	}
}

// add charges n calls totalling d to a layer. The stage calls it is used
// for do not nest, so their duration is their self time.
func (t *tracer) add(layer string, n int64, d time.Duration) {
	a := t.layers[layer]
	if a == nil {
		a = &layerAcc{}
		t.layers[layer] = a
	}
	a.Count += n
	a.SelfS += d.Seconds()
}

func (t *tracer) self(layer string) float64 {
	if a := t.layers[layer]; a != nil {
		return a.SelfS
	}
	return 0
}

// write saves spans and layer totals as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	blob, err := json.MarshalIndent(struct {
		Layers map[string]*layerAcc `json:"layers"`
		Spans  []span               `json:"spans"`
	}{t.layers, t.spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, blob, 0o644)
}

// serialStages are the layers the serial pass charges; their self times
// must cover the pass's wall time (the stage budget).
var serialStages = []string{"mrt.frame", "bgp.decode", "stream.dispatch", "stream.closeday", "stream.sync_wait"}

// serialResult is one serial pass over an archive.
type serialResult struct {
	eng         *stream.Engine // closed, still queryable
	wall        time.Duration
	frames      int64
	bytes       int64
	internCalls int64 // updates carrying an attrs block
}

// serialPass drives the archive through a one-shard engine stage by
// stage on this goroutine: frame, decode and intern, dispatch, day close,
// and a final sync. The observation day is the record's UTC day, which
// is the replay calendar for synth archives; the day in flight at the
// end is closed, as a replay does. With tr nil nothing is timed.
func serialPass(r io.Reader, tr *tracer) (*serialResult, error) {
	eng := stream.New(stream.Config{Shards: 1, DecodeWorkers: 1, HistoryLimit: 256, DisableEventLog: true})
	fr := mrt.NewFramer(r)
	var m mrt.BGP4MPMessage
	var upd bgp.Update
	var body []byte
	res := &serialResult{eng: eng}
	curDay := -1
	var frameD, decodeD, dispatchD, closeD time.Duration
	var t0, t1 time.Time
	clock := func() time.Time {
		if tr == nil {
			return time.Time{}
		}
		return time.Now()
	}
	begin := time.Now()
	// Each stage's end stamp is the next stage's start, so the stage self
	// times tile the loop with no untimed gaps.
	t0 = clock()
	for {
		h, b, err := fr.NextInto(body[:0])
		t1 = clock()
		frameD += t1.Sub(t0)
		body = b
		if err == io.EOF {
			break
		}
		if err != nil {
			eng.Close()
			return nil, err
		}
		res.frames++
		res.bytes += mrtHeaderLen + int64(len(body))
		if err := decodeUpdate(&m, &upd, body, eng.Interner()); err != nil {
			eng.Close()
			return nil, err
		}
		t0 = clock()
		decodeD += t0.Sub(t1)
		if upd.Attrs != nil {
			res.internCalls++
		}
		day := int(h.Timestamp / 86400)
		if curDay < 0 {
			curDay = day
		}
		if curDay < day {
			for curDay < day {
				eng.CloseDay(curDay)
				curDay++
			}
			t1 = clock()
			closeD += t1.Sub(t0)
			t0 = t1
		}
		eng.ApplyUpdate(curDay, stream.PeerKey{IP: m.PeerIP, AS: m.PeerAS}, &upd)
		t1 = clock()
		dispatchD += t1.Sub(t0)
		t0 = t1
	}
	t0 = clock()
	if curDay >= 0 {
		eng.CloseDay(curDay)
	}
	t1 = clock()
	closeD += t1.Sub(t0)
	eng.Sync()
	syncD := clock().Sub(t1)
	res.wall = time.Since(begin)
	eng.Close()
	if tr != nil {
		tr.add("mrt.frame", res.frames, frameD)
		tr.add("bgp.decode", res.frames, decodeD)
		tr.add("stream.dispatch", res.frames, dispatchD)
		tr.add("stream.closeday", int64(eng.LastClosedDay()+1), closeD)
		tr.add("stream.sync_wait", 1, syncD)
	}
	return res, nil
}

// checkpointStages times the checkpoint layers over a settled engine:
// snapshot, binary encode, the durable write through vfs (temp file,
// fsync, rename), decode and restore. It returns the encoded size.
func checkpointStages(eng *stream.Engine, dir string, tr *tracer) (int, error) {
	t := time.Now()
	ck := eng.Checkpoint()
	tr.add("stream.snapshot", 1, time.Since(t))

	t = time.Now()
	blob, err := stream.AppendCheckpointBinary(nil, ck)
	tr.add("stream.ck_encode", 1, time.Since(t))
	if err != nil {
		return 0, err
	}
	ck = nil // let the snapshot go before the decode doubles the heap

	t = time.Now()
	err = writeDurable(vfs.OS{}, dir, blob)
	tr.add("serve.checkpoint_write", 1, time.Since(t))
	if err != nil {
		return 0, err
	}

	t = time.Now()
	ck2, err := stream.DecodeCheckpointBinary(blob)
	tr.add("stream.ck_decode", 1, time.Since(t))
	if err != nil {
		return 0, err
	}
	size := len(blob)
	blob = nil

	t = time.Now()
	e2, err := stream.NewFromCheckpoint(stream.Config{Shards: 1}, ck2)
	tr.add("stream.restore", 1, time.Since(t))
	if err != nil {
		return 0, err
	}
	e2.Close()
	return size, nil
}

// writeDurable persists blob the way the daemon's checkpoint store does:
// temp file in the target directory, write, fsync, close, rename, then a
// directory sync. The file is removed afterwards.
func writeDurable(fs vfs.FS, dir string, blob []byte) error {
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := fs.CreateTemp(dir, ".tmp-ck-*")
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	final := filepath.Join(dir, "ck-serial.bin")
	if err := fs.Rename(f.Name(), final); err != nil {
		return err
	}
	_ = fs.SyncDir(dir) // best effort, as the checkpoint store does
	return fs.Remove(final)
}

// epilogStages appends eps into a fresh episode log one record at a
// time, then times a full-range Query and Summary over it. It returns
// the log's on-disk bytes.
func epilogStages(eps []epilog.Episode, dir string, asOf int, tr *tracer) (int64, error) {
	lg, err := epilog.Open(dir, epilog.Options{})
	if err != nil {
		return 0, err
	}
	t := time.Now()
	for i := range eps {
		if err := lg.Append(eps[i]); err != nil {
			lg.Close()
			return 0, err
		}
	}
	tr.add("epilog.append", int64(len(eps)), time.Since(t))
	q := epilog.Query{Class: -1, AsOf: asOf}
	t = time.Now()
	got, err := lg.Query(q)
	tr.add("epilog.query", 1, time.Since(t))
	if err == nil && len(got) != len(eps) {
		err = fmt.Errorf("epilog readback: %d episodes appended, %d read back", len(eps), len(got))
	}
	if err != nil {
		lg.Close()
		return 0, err
	}
	t = time.Now()
	_, err = lg.Summary(q)
	tr.add("epilog.summary", 1, time.Since(t))
	st := lg.Stats()
	if cerr := lg.Close(); err == nil {
		err = cerr
	}
	return st.Bytes, err
}
