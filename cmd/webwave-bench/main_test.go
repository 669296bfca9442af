package main

import "testing"

func TestListRuns(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list: %v", err)
	}
}

func TestUnknownScenario(t *testing.T) {
	if err := run([]string{"-scenario", "no-such-scenario"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestUnknownMode(t *testing.T) {
	if err := run([]string{"-scenario", "zipf-steady", "-mode", "warp"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestParseProcsRejectsGarbage(t *testing.T) {
	if _, err := parseProcs("1,x,4"); err == nil {
		t.Fatal("garbage proc list accepted")
	}
	sweep, err := parseProcs("1,2,4")
	if err != nil || len(sweep) != 3 || sweep[2] != 4 {
		t.Fatalf("parseProcs(1,2,4) = %v, %v", sweep, err)
	}
}
