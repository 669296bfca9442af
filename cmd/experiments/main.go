// Command experiments regenerates every evaluation artifact of the paper
// (DESIGN.md §4): Figures 2, 4, 6a/6b, 7, the γ regression, the Section 2
// GLE diffusion bound, and the extension experiments. EXPERIMENTS.md quotes
// this command's output.
//
// Usage:
//
//	experiments            # run everything
//	experiments -run fig6b # one of: fig2 fig4 fig6 gamma fig7 gle baselines forest erratic stability live
//	experiments -quick     # smaller parameters (CI-sized)
//	experiments -plot      # also render ASCII charts for the curve artifacts
//	experiments -csv DIR   # also write the curve series as CSV files
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"webwave/internal/plot"
	"webwave/internal/repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	only := fs.String("run", "", "run a single experiment: fig2 fig4 fig6 gamma spectral fig7 gle baselines hierarchy forest churn erratic policies capacity stability live")
	quick := fs.Bool("quick", false, "smaller parameters")
	doPlot := fs.Bool("plot", false, "render ASCII charts for curve artifacts")
	csvDir := fs.String("csv", "", "directory to write curve series as CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fmt.Errorf("csv dir: %w", err)
		}
	}

	want := func(name string) bool { return *only == "" || *only == name }

	// emitCurves renders/dumps per-round series for one artifact.
	emitCurves := func(name, title string, logY bool, series ...plot.Series) error {
		if *doPlot {
			out, err := plot.Render(plot.Config{
				Title: title, LogY: logY, Width: 64, Height: 18,
				YLabel: "Euclidean distance to TLB", XLabel: "round",
			}, series...)
			if err != nil {
				return fmt.Errorf("%s: plot: %w", name, err)
			}
			fmt.Println(out)
		}
		if *csvDir != "" {
			f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
			if err != nil {
				return fmt.Errorf("%s: csv: %w", name, err)
			}
			defer f.Close()
			if err := plot.WriteCSV(f, series...); err != nil {
				return fmt.Errorf("%s: csv: %w", name, err)
			}
		}
		return nil
	}

	if want("fig2") {
		r, err := repro.RunFigure2()
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if want("fig4") {
		r, err := repro.RunFigure4()
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if want("fig6") || want("fig6a") || want("fig6b") {
		r, err := repro.RunFigure6(5000)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
		err = emitCurves("fig6b", "Figure 6b — WebWave convergence to TLB (semilog)", true,
			plot.Series{Name: "‖L−TLB‖", Y: r.Distances})
		if err != nil {
			return err
		}
	}
	if want("gamma") {
		cfg := repro.DefaultGammaConfig()
		if *quick {
			cfg.Trees = 3
			cfg.MaxRound = 1500
		}
		r, err := repro.RunGammaEstimate(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if want("spectral") {
		cfg := repro.DefaultGammaConfig()
		if *quick {
			cfg.Trees = 4
			cfg.MaxRound = 1500
		}
		r, err := repro.RunGammaSpectral(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if want("fig7") {
		r, err := repro.RunFigure7(600)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
		err = emitCurves("fig7", "Figure 7 — barrier plateau vs tunneling recovery (semilog)", true,
			plot.Series{Name: "no tunneling", Y: r.NoTunnel.Distances},
			plot.Series{Name: "with tunneling", Y: r.WithTunnel.Distances})
		if err != nil {
			return err
		}
	}
	if want("gle") {
		r, err := repro.RunGLEDiffusion(1)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if want("baselines") {
		sizes := []int{10, 50, 100, 500, 1000}
		if *quick {
			sizes = []int{10, 100}
		}
		r, err := repro.RunBaselineComparison(sizes, 1)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if want("hierarchy") {
		n := 25
		if *quick {
			n = 12
		}
		r, err := repro.RunHierarchyComparison(n, 12, 1)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if want("forest") {
		counts := []int{1, 2, 4, 8}
		if *quick {
			counts = []int{1, 3}
		}
		r, err := repro.RunForestComparison(30, counts, 1)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if want("churn") {
		epochs, rounds := 6, 400
		if *quick {
			epochs, rounds = 3, 150
		}
		r, err := repro.RunRouteChurn(30, epochs, rounds, 1)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if want("erratic") {
		regimes, rounds := 6, 400
		if *quick {
			regimes, rounds = 3, 150
		}
		r, err := repro.RunErraticTracking(40, regimes, rounds, 1)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if want("policies") {
		n, docs, rounds := 40, 24, 400
		if *quick {
			n, docs, rounds = 20, 10, 150
		}
		r, err := repro.RunPolicyComparison(n, docs, rounds, 3)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if want("capacity") {
		n, docs, rounds := 40, 24, 400
		caps := []int{1, 2, 4, 8, 0}
		if *quick {
			n, docs, rounds = 20, 10, 150
			caps = []int{1, 4, 0}
		}
		r, err := repro.RunCapacitySweep(n, docs, rounds, caps, 3)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if want("stability") {
		cfg := repro.DefaultStabilityConfig()
		if *quick {
			cfg.Nodes = 30
			cfg.Rounds = 300
		}
		r, err := repro.RunStability(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
		series := make([]plot.Series, 0, len(r.Rows))
		for _, row := range r.Rows {
			series = append(series, plot.Series{Name: string(row.Scenario), Y: row.Errors})
		}
		if err := emitCurves("stability", "X7 — normalized tracking error by scenario", false, series...); err != nil {
			return err
		}
	}
	if want("live") {
		cfg := repro.DefaultLiveConfig()
		if *quick {
			cfg.Horizon = 1.5
			cfg.TotalRate = 2000
		}
		r, err := repro.RunLiveCluster(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	return nil
}
