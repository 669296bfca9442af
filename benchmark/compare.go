package main

import "fmt"

// compareFiles prints, per workload and end-to-end metric, the value in
// each file, how much worse the second is as a share of the first, and
// PASS or FAIL against the metric's bound. It reports whether all passed.
// Where both files also hold a traced result of the workload, its
// per-layer metrics follow, side by side and without a verdict. The first
// result of each workload and mode in a file is used.
func compareFiles(pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	find := func(rs []result, workload string, traced bool) *result {
		for i := range rs {
			if rs[i].Workload == workload && rs[i].Trace == traced {
				return &rs[i]
			}
		}
		return nil
	}
	pass, compared := true, 0
	fmt.Printf("%-24s %-20s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, w := range workloads {
		ra, rb := find(a, w.Name, false), find(b, w.Name, false)
		if ra == nil || rb == nil {
			continue
		}
		if ra.Seed != rb.Seed || ra.Seconds != rb.Seconds || ra.GOMAXPROCS != rb.GOMAXPROCS {
			fmt.Printf("%-24s NOTE: seed, window or GOMAXPROCS differ between the two files\n", w.Name)
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			worse := ratio(vb-va, va)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "PASS"
			if worse > d.Bound {
				verdict, pass = "FAIL", false
			}
			fmt.Printf("%-24s %-20s %14.6g %14.6g %+8.1f%% %6.0f%% %s\n", w.Name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
			compared++
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Printf("%-24s %-20s %14d %14d %27s\n", w.Name, "failed", ra.Failed, rb.Failed, "FAIL")
			pass = false
		}
		if ta, tb := find(a, w.Name, true), find(b, w.Name, true); ta != nil && tb != nil {
			for _, d := range perLayer {
				va, vb := ta.Metrics[d.Name].Value, tb.Metrics[d.Name].Value
				fmt.Printf("%-24s %-38s %14.6g %14.6g %+8.1f%%\n", w.Name, d.Name, va, vb, 100*ratio(vb-va, va))
			}
		}
	}
	if compared == 0 {
		return false, fmt.Errorf("the two files share no untraced workload")
	}
	return pass, nil
}
