package workload

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// smallSpec shrinks a scenario for test runtimes: fewer nodes and a lower
// rate, but the full virtual duration so time-phased perturbations (flash
// crowds, churn) still fire.
func smallSpec(t *testing.T, name string) Spec {
	t.Helper()
	sp, ok := Lookup(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	sp.Nodes = 15
	sp.TotalRate = 120
	return sp
}

func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	return b
}

func TestRunFastDeterministic(t *testing.T) {
	sp := smallSpec(t, "flash-crowd")
	r1, err := RunFast(sp, 9)
	if err != nil {
		t.Fatalf("RunFast: %v", err)
	}
	r2, err := RunFast(sp, 9)
	if err != nil {
		t.Fatalf("RunFast: %v", err)
	}
	a, b := reportBytes(t, r1), reportBytes(t, r2)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different reports")
	}
	r3, err := RunFast(sp, 10)
	if err != nil {
		t.Fatalf("RunFast: %v", err)
	}
	if bytes.Equal(a, reportBytes(t, r3)) {
		t.Fatal("different seeds produced identical reports")
	}
}

func TestRunFastReportShape(t *testing.T) {
	for _, name := range []string{"zipf-steady", "flash-crowd", "churn", "multi-doc-lru"} {
		name := name
		t.Run(name, func(t *testing.T) {
			rep, err := RunFast(smallSpec(t, name), 4)
			if err != nil {
				t.Fatalf("RunFast: %v", err)
			}
			if rep.Schema != Schema || rep.Mode != "fast" {
				t.Fatalf("bad header: %+v", rep)
			}
			ww := rep.System("webwave")
			if ww == nil {
				t.Fatal("no webwave system in report")
			}
			if ww.Served == 0 || ww.ThroughputRPS <= 0 {
				t.Fatalf("webwave served nothing: %+v", ww)
			}
			if ww.Latency.P50MS <= 0 || ww.Latency.P99MS < ww.Latency.P50MS {
				t.Fatalf("broken latency stats: %+v", ww.Latency)
			}
			if len(ww.Windows) == 0 {
				t.Fatal("no fairness windows")
			}
			for _, w := range ww.Windows {
				if w.Jain < 0 || w.Jain > 1 {
					t.Fatalf("Jain %v outside [0,1]", w.Jain)
				}
				if w.MaxOverMean < 1-1e-9 {
					t.Fatalf("MaxOverMean %v < 1", w.MaxOverMean)
				}
			}
			if rep.System("no-cache") == nil {
				t.Fatal("no no-cache baseline system")
			}
			if len(rep.Baselines) < 3 {
				t.Fatalf("want analytic baselines, got %d", len(rep.Baselines))
			}
			if name == "multi-doc-lru" && rep.System("path-lru") == nil {
				t.Fatal("multi-doc-lru should include the path-lru policy")
			}
			if name == "churn" {
				if rep.ChurnEvents == 0 {
					t.Fatal("churn scenario scheduled no events")
				}
				if ww.Failed == 0 {
					t.Fatal("churn run lost no requests — down nodes had no effect")
				}
			}
			if name == "flash-crowd" {
				// The flash must actually fire: windows inside the event
				// carry well above the pre-flash request rate.
				sp := rep.Spec
				var preMax, peak int64
				for _, w := range ww.Windows {
					switch {
					case w.End <= sp.Flash.Start:
						if w.Requests > preMax {
							preMax = w.Requests
						}
					case w.Start >= sp.Flash.Start+sp.Flash.Ramp &&
						w.End <= sp.Flash.Start+sp.Flash.Ramp+sp.Flash.Hold:
						if w.Requests > peak {
							peak = w.Requests
						}
					}
				}
				if peak < 3*preMax {
					t.Fatalf("flash never fired: peak window %d requests vs pre-flash max %d", peak, preMax)
				}
			}
		})
	}
}

// TestWebWaveBeatsNoCacheOnBalance is the benchmark's reason to exist: on
// the identical trace, WebWave's placement must spread load better (higher
// Jain, lower max/mean, fewer hops) than serving everything at the home.
func TestWebWaveBeatsNoCacheOnBalance(t *testing.T) {
	rep, err := RunFast(smallSpec(t, "zipf-steady"), 1)
	if err != nil {
		t.Fatalf("RunFast: %v", err)
	}
	ww, nc := rep.System("webwave"), rep.System("no-cache")
	if ww.MeanJain <= nc.MeanJain {
		t.Errorf("webwave Jain %.3f not better than no-cache %.3f", ww.MeanJain, nc.MeanJain)
	}
	if ww.WorstMaxOverMean >= nc.WorstMaxOverMean {
		t.Errorf("webwave max/mean %.2f not better than no-cache %.2f",
			ww.WorstMaxOverMean, nc.WorstMaxOverMean)
	}
	if ww.MeanHops >= nc.MeanHops {
		t.Errorf("webwave hops %.2f not better than no-cache %.2f", ww.MeanHops, nc.MeanHops)
	}
}

// TestRunLiveSmoke drives the real cluster through the gateway with a tiny
// compressed schedule.
func TestRunLiveSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live run needs wall-clock time")
	}
	sp := smallSpec(t, "zipf-steady")
	sp.Duration = 6
	sp.TotalRate = 60
	rep, err := RunLive(sp, 2, LiveOptions{
		Speedup: 8, Clients: 8,
		GossipPeriod:    10 * time.Millisecond,
		DiffusionPeriod: 20 * time.Millisecond,
		Window:          200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	sys := rep.System("webwave-live")
	if sys == nil {
		t.Fatal("no webwave-live system")
	}
	if sys.Served == 0 {
		t.Fatal("live run served nothing")
	}
	if sys.Failed > sys.Served/10 {
		t.Fatalf("live run failed %d of %d requests", sys.Failed, sys.Served+sys.Failed)
	}
	if len(sys.Nodes) != rep.Tree.Nodes {
		t.Fatalf("node scrape has %d entries, want %d", len(sys.Nodes), rep.Tree.Nodes)
	}
	var served int64
	for _, n := range sys.Nodes {
		served += n.Served
	}
	if served == 0 {
		t.Fatal("server counters report nothing served")
	}
}
