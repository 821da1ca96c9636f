package main

import (
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: congesthard
cpu: some cpu
BenchmarkCongestRunCore/64v-rounds=64-8         	       5	    291234 ns/op	     269 B/op	       9 allocs/op
BenchmarkVerifyExhaustive/mdslb-k2-8            	       5	    755000 ns/op	   24680 B/op	     246 allocs/op
BenchmarkNoMem-8 	      10	     123.5 ns/op
PASS
ok  	congesthard	12.3s
`
	entries, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("parsed %d entries, want 3", len(entries))
	}
	first := entries[0]
	if first.Name != "BenchmarkCongestRunCore/64v-rounds=64-8" {
		t.Errorf("name %q", first.Name)
	}
	if first.Iterations != 5 || first.NsPerOp != 291234 || first.BytesPerOp != 269 || first.AllocsPerOp != 9 {
		t.Errorf("entry %+v", first)
	}
	if entries[1].AllocsPerOp != 246 {
		t.Errorf("allocs %d, want 246", entries[1].AllocsPerOp)
	}
	noMem := entries[2]
	if noMem.NsPerOp != 123.5 || noMem.AllocsPerOp != 0 {
		t.Errorf("memless entry %+v", noMem)
	}
}

func TestDiffMatchesByNameAndFlagsRegressions(t *testing.T) {
	old := []Entry{
		{Name: "BenchmarkA-8", NsPerOp: 1000},
		{Name: "BenchmarkB-8", NsPerOp: 2000},
		{Name: "BenchmarkGone-8", NsPerOp: 5},
	}
	cur := []Entry{
		{Name: "BenchmarkB-8", NsPerOp: 2600}, // +30%: regression at 25%
		{Name: "BenchmarkA-8", NsPerOp: 900},  // -10%: fine
		{Name: "BenchmarkNew-8", NsPerOp: 7},
	}
	rows := Diff(old, cur)
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	byName := map[string]DiffRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if r := byName["BenchmarkA-8"]; r.DeltaPct > -9.9 || r.DeltaPct < -10.1 || r.Added || r.Removed {
		t.Errorf("A row %+v", r)
	}
	if r := byName["BenchmarkB-8"]; r.DeltaPct < 29.9 || r.DeltaPct > 30.1 {
		t.Errorf("B row %+v", r)
	}
	if r := byName["BenchmarkNew-8"]; !r.Added {
		t.Errorf("new row not marked added: %+v", r)
	}
	if r := byName["BenchmarkGone-8"]; !r.Removed {
		t.Errorf("gone row not marked removed: %+v", r)
	}
	var out strings.Builder
	if got := PrintDiff(&out, rows, 25, -1); got != 1 {
		t.Errorf("regressed = %d, want 1 (only B; added/removed rows never fail)", got)
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("report missing REGRESSION marker:\n%s", out.String())
	}
	if got := PrintDiff(&out, rows, 35, -1); got != 0 {
		t.Errorf("regressed = %d at 35%% threshold, want 0", got)
	}
}

func TestDiffTracksAllocs(t *testing.T) {
	old := []Entry{
		{Name: "BenchmarkHot-8", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "BenchmarkCold-8", NsPerOp: 100, AllocsPerOp: 100},
	}
	cur := []Entry{
		{Name: "BenchmarkHot-8", NsPerOp: 100, AllocsPerOp: 3},    // 0 -> 3: zero-alloc path broken
		{Name: "BenchmarkCold-8", NsPerOp: 100, AllocsPerOp: 120}, // +20%
	}
	rows := Diff(old, cur)
	byName := map[string]DiffRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if r := byName["BenchmarkCold-8"]; r.OldAllocs != 100 || r.NewAllocs != 120 || r.AllocsDeltaPct < 19.9 || r.AllocsDeltaPct > 20.1 {
		t.Errorf("cold row %+v", r)
	}
	if r := byName["BenchmarkHot-8"]; r.OldAllocs != 0 || r.NewAllocs != 3 || r.AllocsDeltaPct != 0 {
		t.Errorf("hot row %+v (zero baseline must not divide)", r)
	}

	// Gate off: allocs growth alone never fails.
	var out strings.Builder
	if got := PrintDiff(&out, rows, 25, -1); got != 0 {
		t.Errorf("allocs gate disabled but regressed = %d", got)
	}
	if !strings.Contains(out.String(), "allocs/op") {
		t.Errorf("report missing allocs column:\n%s", out.String())
	}
	// Gate at 25%: the 0 -> 3 break trips it, the +20% does not.
	out.Reset()
	if got := PrintDiff(&out, rows, 25, 25); got != 1 {
		t.Errorf("regressed = %d at allocs gate 25%%, want 1 (the 0->3 break)", got)
	}
	if !strings.Contains(out.String(), "REGRESSION(allocs/op)") {
		t.Errorf("report missing allocs regression marker:\n%s", out.String())
	}
	// Gate at 0%: both trip.
	if got := PrintDiff(&out, rows, 25, 0); got != 2 {
		t.Errorf("regressed = %d at allocs gate 0%%, want 2", got)
	}
}

func TestDiffZeroBaselineDoesNotDivide(t *testing.T) {
	rows := Diff([]Entry{{Name: "BenchmarkZ-8", NsPerOp: 0}}, []Entry{{Name: "BenchmarkZ-8", NsPerOp: 10}})
	if len(rows) != 1 || rows[0].DeltaPct != 0 {
		t.Errorf("zero baseline rows %+v", rows)
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	entries, err := Parse(strings.NewReader("Benchmark\nBenchmarkX notanumber ns/op\nhello\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("parsed %d entries from garbage", len(entries))
	}
}

func TestCheckGatesAppliesCeilingsByNamePrefix(t *testing.T) {
	entries := []Entry{
		{Name: "BenchmarkVerifyExhaustive/mdslb-k2-4", AllocsPerOp: 8192},
		{Name: "BenchmarkCongestRunCore/64v-rounds=1024,faults-4", AllocsPerOp: 8193},
		{Name: "BenchmarkCertifyThroughput/mds-collect-4", AllocsPerOp: 106000},
		{Name: "BenchmarkCertifyThroughput/mds-collect-metrics-4", AllocsPerOp: 460000},
		{Name: "BenchmarkCertifyThroughput/hamlb-collect-4", AllocsPerOp: 3900000},
		{Name: "BenchmarkServeThroughput-4", AllocsPerOp: 1 << 40},
	}
	got := CheckGates(entries, AllocGates)
	want := []string{
		"BenchmarkCongestRunCore/64v-rounds=1024,faults-4",
		"BenchmarkCertifyThroughput/mds-collect-metrics-4",
		"BenchmarkCertifyThroughput/hamlb-collect-4",
	}
	if len(got) != len(want) {
		t.Fatalf("violations %q, want one each for %q", got, want)
	}
	for i, name := range want {
		if !strings.Contains(got[i], name+" allocates") {
			t.Errorf("violation %d = %q, want %s", i, got[i], name)
		}
	}
}
