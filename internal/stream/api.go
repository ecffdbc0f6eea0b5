package stream

import (
	"encoding/json"
	"net/http"
	"strconv"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/source"
)

// API wire types. Prefixes render as CIDR strings and classes by their
// Figure 6 names so the JSON is self-describing.

type conflictJSON struct {
	Prefix       string    `json:"prefix"`
	Origins      []bgp.ASN `json:"origins"`
	Class        string    `json:"class"`
	SinceDay     int       `json:"since_day"`
	FirstDay     int       `json:"first_day"`
	LastDay      int       `json:"last_day"`
	DaysObserved int       `json:"days_observed"`
}

type eventJSON struct {
	Type        string    `json:"type"`
	Day         int       `json:"day"`
	Seq         uint64    `json:"seq"`
	Origins     []bgp.ASN `json:"origins,omitempty"`
	PrevOrigins []bgp.ASN `json:"prev_origins,omitempty"`
	Class       string    `json:"class"`
	PrevClass   string    `json:"prev_class"`
}

type prefixJSON struct {
	Prefix       string      `json:"prefix"`
	Active       bool        `json:"active"`
	Origins      []bgp.ASN   `json:"origins,omitempty"`
	Class        string      `json:"class"`
	Routes       int         `json:"routes"`
	History      []eventJSON `json:"history"`
	FirstDay     int         `json:"first_day,omitempty"`
	LastDay      int         `json:"last_day,omitempty"`
	DaysObserved int         `json:"days_observed,omitempty"`
	OriginsEver  []bgp.ASN   `json:"origins_ever,omitempty"`
}

type involvementJSON struct {
	ASN            bgp.ASN  `json:"asn"`
	Active         int      `json:"active"`
	Ever           int      `json:"ever"`
	ActivePrefixes []string `json:"active_prefixes"`
}

type statsJSON struct {
	Shards          int            `json:"shards"`
	Messages        uint64         `json:"messages"`
	Ops             uint64         `json:"ops"`
	LastClosedDay   int            `json:"last_closed_day"`
	DistinctAttrs   int            `json:"distinct_attrs"`
	InternerEpochs  int            `json:"interner_epochs"`
	InternerBytes   int64          `json:"interner_bytes"`
	RouteNodes      int            `json:"route_nodes"`
	KernelStates    int            `json:"kernel_states"`
	Slots           int            `json:"slots"`
	ActiveConflicts int            `json:"active_conflicts"`
	TotalConflicts  int            `json:"total_conflicts"`
	Events          int            `json:"events"`
	ByClass         map[string]int `json:"active_by_class"`
	Replaying       bool           `json:"replaying"`
	Source          *source.Status `json:"source,omitempty"`
	Lifecycle       lifecycleJSON  `json:"lifecycle"`
	Decode          *decodeJSON    `json:"decode,omitempty"`
}

// decodeJSON mirrors DecodeStats; omitted until the engine's first
// Replay publishes a decode stage.
type decodeJSON struct {
	Workers       int     `json:"workers"`
	Frames        uint64  `json:"frames"`
	FramesPerSec  float64 `json:"frames_per_sec"`
	RingOccupancy int     `json:"ring_occupancy"`
	ReorderBuffer int     `json:"reorder_buffer"`
}

type lifecycleJSON struct {
	Spans      int     `json:"spans"`
	Open       int     `json:"open"`
	MeanDays   float64 `json:"mean_days"`
	MedianDays float64 `json:"median_days"`
	MaxDays    int     `json:"max_days"`
}

// NewAPI returns moasd's HTTP handler over a live engine:
//
//	GET /conflicts        current conflict set (?limit=N, ?as=ASN)
//	GET /prefix/{cidr}    one prefix's state, lifecycle and lifetime record
//	GET /as/{asn}         an AS's conflict involvement
//	GET /stats            engine counters and event-derived duration stats
//	GET /healthz          liveness plus replay progress
//
// Handlers read the engine through its shard stripe locks, so they serve
// consistent per-shard snapshots while a replay is in flight.
func NewAPI(e *Engine) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /conflicts", func(w http.ResponseWriter, r *http.Request) {
		conflicts := e.ActiveConflicts()
		if asParam := r.URL.Query().Get("as"); asParam != "" {
			a, err := parseASN(asParam)
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad as parameter")
				return
			}
			filtered := conflicts[:0]
			for _, c := range conflicts {
				if containsASN(c.Origins, a) {
					filtered = append(filtered, c)
				}
			}
			conflicts = filtered
		}
		total := len(conflicts)
		if limParam := r.URL.Query().Get("limit"); limParam != "" {
			if lim, err := strconv.Atoi(limParam); err == nil && lim >= 0 && lim < len(conflicts) {
				conflicts = conflicts[:lim]
			}
		}
		out := struct {
			Count     int            `json:"count"`
			Conflicts []conflictJSON `json:"conflicts"`
		}{Count: total, Conflicts: make([]conflictJSON, len(conflicts))}
		for i, c := range conflicts {
			out.Conflicts[i] = conflictJSON{
				Prefix:       c.Prefix.String(),
				Origins:      c.Origins,
				Class:        c.Class.String(),
				SinceDay:     c.SinceDay,
				FirstDay:     c.FirstDay,
				LastDay:      c.LastDay,
				DaysObserved: c.DaysObserved,
			}
		}
		writeJSON(w, out)
	})

	mux.HandleFunc("GET /prefix/{cidr...}", func(w http.ResponseWriter, r *http.Request) {
		p, err := bgp.ParsePrefix(r.PathValue("cidr"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad prefix")
			return
		}
		info := e.Prefix(p)
		out := prefixJSON{
			Prefix:  info.Prefix.String(),
			Active:  info.Active,
			Origins: info.Origins,
			Class:   info.Class.String(),
			Routes:  info.Routes,
			History: make([]eventJSON, len(info.History)),
		}
		for i, ev := range info.History {
			out.History[i] = eventJSON{
				Type:        ev.Type.String(),
				Day:         ev.Day,
				Seq:         ev.Seq,
				Origins:     ev.Origins,
				PrevOrigins: ev.PrevOrigins,
				Class:       ev.Class.String(),
				PrevClass:   ev.PrevClass.String(),
			}
		}
		if c := info.Conflict; c != nil {
			out.FirstDay, out.LastDay = c.FirstDay, c.LastDay
			out.DaysObserved = c.DaysObserved
			out.OriginsEver = c.OriginsEver
		}
		writeJSON(w, out)
	})

	mux.HandleFunc("GET /as/{asn}", func(w http.ResponseWriter, r *http.Request) {
		a, err := parseASN(r.PathValue("asn"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad asn")
			return
		}
		inv := e.Involvement(a)
		out := involvementJSON{
			ASN:            inv.ASN,
			Active:         inv.Active,
			Ever:           inv.Ever,
			ActivePrefixes: make([]string, len(inv.ActivePrefixes)),
		}
		for i, p := range inv.ActivePrefixes {
			out.ActivePrefixes[i] = p.String()
		}
		writeJSON(w, out)
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, statsToJSON(e))
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, struct {
			Status        string         `json:"status"`
			LastClosedDay int            `json:"last_closed_day"`
			Replaying     bool           `json:"replaying"`
			Source        *source.Status `json:"source,omitempty"`
		}{"ok", int(e.lastClosed.Load()), !e.closed.Load(), e.SourceStatus()})
	})

	return mux
}

// StatsView returns the engine's /stats document as a marshalable
// value, so embedding layers (serve's per-scenario stats endpoint) can
// extend it with their own fields without re-deriving the counters.
func (e *Engine) StatsView() any { return statsToJSON(e) }

func statsToJSON(e *Engine) statsJSON {
	st := e.Stats()
	out := statsJSON{
		Shards:          st.Shards,
		Messages:        st.Messages,
		Ops:             st.Ops,
		LastClosedDay:   st.LastClosedDay,
		DistinctAttrs:   st.DistinctAttrs,
		InternerEpochs:  st.InternerEpochs,
		InternerBytes:   st.InternerBytes,
		RouteNodes:      st.RouteNodes,
		KernelStates:    st.KernelStates,
		Slots:           st.Slots,
		ActiveConflicts: st.ActiveConflicts,
		TotalConflicts:  st.TotalConflicts,
		Events:          st.Events,
		ByClass:         make(map[string]int),
		Replaying:       !e.closed.Load(),
		Source:          st.Source,
		Lifecycle: lifecycleJSON{
			Spans:      st.Lifecycle.Spans,
			Open:       st.Lifecycle.Open,
			MeanDays:   st.Lifecycle.MeanDays,
			MedianDays: st.Lifecycle.MedianDays,
			MaxDays:    st.Lifecycle.MaxDays,
		},
	}
	if st.Decode.Workers > 0 {
		out.Decode = &decodeJSON{
			Workers:       st.Decode.Workers,
			Frames:        st.Decode.Frames,
			FramesPerSec:  st.Decode.FramesPerSec,
			RingOccupancy: st.Decode.RingOccupancy,
			ReorderBuffer: st.Decode.ReorderBuffer,
		}
	}
	for cl, n := range st.ByClass {
		if n > 0 {
			out.ByClass[core.Class(cl).String()] = n
		}
	}
	return out
}

func parseASN(s string) (bgp.ASN, error) {
	v, err := strconv.ParseUint(s, 10, 32)
	return bgp.ASN(v), err
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
