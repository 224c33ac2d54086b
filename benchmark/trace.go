package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// episodeSpans lays out one traced live episode as the spans the
// benchmark owns: the root from the generator's Sync call to the
// observed answer, and under it the wait for the spoke's dispatcher,
// the sensor alarm with the transport send nested in it, and the remote
// leg from the send's return to the answer.
func episodeSpans(episode int, g genRec, t1 int64) []span {
	return []span{
		{name: "episode", episode: episode, parent: -1, start: g.call, end: t1},
		{name: "gen.sync_wait", episode: episode, parent: 0, start: g.call, end: g.fn},
		{name: "instrument.alarm", episode: episode, parent: 0, start: g.t0, end: g.ret},
		{name: "msg.send", episode: episode, parent: 2, start: g.sendStart, end: g.sendEnd},
		{name: "manager.remote", episode: episode, parent: 0, start: g.sendEnd, end: t1},
	}
}

// joinEpisodes matches the generator's records of the traced phase with
// the observer's samples and returns every episode's spans, re-based so
// parent indexes point into the returned slice, plus the kind of each
// episode by id.
func joinEpisodes(conns []*genConn, samples []sample) (spans []span, kinds []reportKind) {
	type key struct {
		slot int32
		t0   int64
	}
	done := make(map[key]sample, len(samples))
	for _, s := range samples {
		done[key{s.slot, s.t0}] = s
	}
	for _, c := range conns {
		for _, g := range c.recs {
			s, ok := done[key{g.slot, g.t0}]
			if !ok {
				continue
			}
			base := len(spans)
			for _, sp := range episodeSpans(len(kinds), g, s.t1) {
				if sp.parent >= 0 {
					sp.parent += base
				}
				spans = append(spans, sp)
			}
			kinds = append(kinds, s.kind)
		}
	}
	return spans, kinds
}

// traceEvent is one complete ("X") event of the Chrome trace-event
// format, the format /debug/qos/chrome serves: open the file in
// chrome://tracing or https://ui.perfetto.dev.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// maxTraceSpans bounds trace.json; the per-layer numbers use every span.
const maxTraceSpans = 50000

// writeTrace writes spans as trace.json under dir. Each episode is its
// own track (tid), so its spans nest under its root.
func writeTrace(dir string, spans []span, self []int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	written := len(spans)
	if written > maxTraceSpans {
		written = maxTraceSpans
	}
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","otherData":{"spans_recorded":%d,"spans_written":%d},"traceEvents":[`,
		len(spans), written)
	enc := json.NewEncoder(w)
	for i, s := range spans[:written] {
		if i > 0 {
			w.WriteByte(',')
		}
		if err := enc.Encode(traceEvent{
			Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.episode,
			Args: map[string]any{"episode": s.episode, "span": i, "parent": s.parent, "self_us": float64(self[i]) / 1e3},
		}); err != nil {
			f.Close()
			return "", err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
