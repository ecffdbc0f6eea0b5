// Soak coverage: a synth flap storm — the nastiest recycling workload
// the generator produces — driven through Engine.Run via the file
// source, with the engine's arena accounting required to plateau. Lives
// in package stream_test because internal/synth sits above the engine.
package stream_test

import (
	"os"
	"testing"
	"time"

	"moas/internal/source"
	"moas/internal/stream"
	"moas/internal/synth"
)

// TestSynthFlapStormSoak: after a warmup third of the run, every
// storage-growth counter — route nodes carved, kernel states (slots)
// carved, interner bytes — must stay exactly flat while events keep
// accumulating: withdraw/re-announce cycles and flapping conflicts must
// run on recycled storage. Slots, carved and in use, are also bounded
// outright by the archive's distinct prefix count. Sized to seconds by default (the -race CI job
// runs it on every push); MOAS_SOAK=1 (`make soak`) runs the
// months-of-days version.
func TestSynthFlapStormSoak(t *testing.T) {
	days, flap, churnPfx, cycles := 40, 64, 128, 4
	if os.Getenv("MOAS_SOAK") != "" {
		days, flap, churnPfx, cycles = 365, 128, 256, 6
	} else if testing.Short() {
		days = 12
	}
	gen, err := synth.NewStream(synth.Config{
		Seed:        7,
		Days:        days,
		Prefixes:    2048,
		Vantages:    4,
		ChurnPerDay: 256,
		Patterns:    []synth.Pattern{synth.FlapStorm(flap, churnPfx, cycles)},
	})
	if err != nil {
		t.Fatal(err)
	}

	e := stream.New(stream.Config{Shards: 4})
	defer e.Close()

	type sample struct {
		day                           int
		routeNodes, kernStates, slots int
		internerBytes                 int64
		events                        int
	}
	var samples []sample
	// The generator is the transport: synth streams MRT bytes straight
	// into the file source, no archive on disk or in RAM.
	src := source.NewFileReader(gen, "synth-soak", e.Interner())
	err = e.Run(src, &stream.RunOptions{
		CloseFinalDay: true,
		// The archive is epoch-anchored; pin the wall clock to the epoch
		// so the idle-tick day close can never outrun the data.
		Now:  func() uint32 { return 0 },
		Tick: time.Hour,
		OnDayClose: func(day int) {
			st := e.Stats()
			samples = append(samples, sample{day, st.RouteNodes, st.KernelStates, st.Slots, st.InternerBytes, st.Events})
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(samples) != days {
		t.Fatalf("%d day-close samples, want %d", len(samples), days)
	}
	warm := samples[len(samples)/3]
	last := samples[len(samples)-1]
	for _, s := range samples[len(samples)/3:] {
		if s.routeNodes > warm.routeNodes {
			t.Errorf("day %d: route nodes grew past warmup plateau: %d > %d", s.day, s.routeNodes, warm.routeNodes)
		}
		if s.kernStates > warm.kernStates {
			t.Errorf("day %d: kernel arena grew past warmup plateau: %d > %d", s.day, s.kernStates, warm.kernStates)
		}
		if s.internerBytes > warm.internerBytes {
			t.Errorf("day %d: interner bytes grew past warmup plateau: %d > %d", s.day, s.internerBytes, warm.internerBytes)
		}
	}
	// Slot recycling makes the plateau a hard bound: the slot tables
	// (KernelStates) never carve more slots than the archive has
	// prefixes, and the slots in use fit in them. Slots in use are not
	// flat — a background prefix withdrawn at a day close frees its
	// slot — so flatness is required of the carved tables above.
	distinct := gen.Prefixes()
	for _, s := range samples {
		if s.slots > s.kernStates || s.kernStates > distinct {
			t.Errorf("day %d: %d slots in use, %d carved, want slots <= carved <= %d distinct prefixes",
				s.day, s.slots, s.kernStates, distinct)
		}
	}
	if last.events <= warm.events {
		t.Fatalf("events stopped: %d at warmup day %d, %d at day %d — the storm died",
			warm.events, warm.day, last.events, last.day)
	}
	st := e.Stats()
	if st.ActiveConflicts != 0 && st.TotalConflicts == 0 {
		t.Fatalf("degenerate soak: %+v", st)
	}
	t.Logf("%d days: %d events on a plateau of %d route nodes, %d kernel states, %d slots in use (%d prefixes), %d interner bytes",
		days, last.events, warm.routeNodes, warm.kernStates, warm.slots, distinct, warm.internerBytes)
}
