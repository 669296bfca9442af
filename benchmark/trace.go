package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Spans of one request share Req; Parent
// names the span that caused this one.
type span struct {
	Name   string
	Parent string
	Req    uint64
	Lane   int // one lane per client connection or scheduler
	Start  time.Time
	End    time.Time
	Doc    string
	Served int
	Hops   int
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// batch records one span around fn, for the stage-B call batches.
func (t *tracer) batch(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(span{Name: name, Parent: "replay", Start: start, End: end})
	return end.Sub(start)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and Perfetto load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write dumps the spans as Chrome trace-event JSON, times relative to
// origin.
func (t *tracer) write(path string, origin time.Time) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		ev := chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:  float64(s.Start.Sub(origin)) / float64(time.Microsecond),
			Dur: float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
		}
		if s.Parent != "" || s.Req != 0 {
			ev.Args = map[string]any{"parent": s.Parent}
			if s.Req != 0 {
				ev.Args["req"] = s.Req
				ev.Args["doc"] = s.Doc
				ev.Args["served_by"] = s.Served
				ev.Args["hops"] = s.Hops
			}
		}
		events = append(events, ev)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
