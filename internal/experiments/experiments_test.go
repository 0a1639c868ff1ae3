package experiments

import (
	"fmt"
	"strings"
	"testing"

	"gigaflow/internal/pipelines"
	"gigaflow/internal/sim"
	"gigaflow/internal/traffic"
)

// quick returns reduced-scale params for fast tests.
func quick() Params {
	return Params{
		Seed:      1,
		NumFlows:  8000,
		NumChains: 12000,
		Pipelines: []*pipelines.Spec{pipelines.PSC, pipelines.OFD},
	}
}

func TestEndToEndShapes(t *testing.T) {
	e, err := RunEndToEnd(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Cells) != 4 { // 2 pipelines × 2 localities
		t.Fatalf("cells = %d", len(e.Cells))
	}
	for _, c := range e.Cells {
		if c.GF.Packets == 0 || c.MF.Packets != c.GF.Packets {
			t.Fatalf("%s/%s: packet counts inconsistent", c.Pipeline, c.Locality)
		}
		// The headline reproduction claims, per cell:
		if c.GF.HitRate() < c.MF.HitRate() {
			t.Errorf("%s/%s: gigaflow hit %.3f below megaflow %.3f",
				c.Pipeline, c.Locality, c.GF.HitRate(), c.MF.HitRate())
		}
		if c.GF.Coverage <= uint64(c.GF.Entries) && c.GF.MeanSharing > 1.01 {
			t.Errorf("%s/%s: shared entries but no coverage amplification", c.Pipeline, c.Locality)
		}
	}

	// All six tables must render with one row per cell (or per pipeline).
	for _, tab := range []interface{ Render() string }{
		e.Fig8(), e.Fig9(), e.Fig10(), e.Fig11(), e.Fig12(), e.Fig13(), e.Table2(),
	} {
		out := tab.Render()
		if !strings.Contains(out, "PSC") || !strings.Contains(out, "OFD") {
			t.Errorf("table missing pipelines:\n%s", out)
		}
	}
}

func TestTable2CoverageFactor(t *testing.T) {
	e, err := RunEndToEnd(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range e.Cells {
		if c.Locality != traffic.HighLocality {
			continue
		}
		if c.GF.Coverage < 10*c.MF.Coverage {
			t.Errorf("%s: coverage %d not ≫ megaflow %d", c.Pipeline, c.GF.Coverage, c.MF.Coverage)
		}
	}
}

func TestFig3MonotoneImprovement(t *testing.T) {
	p := quick()
	tab, err := Fig3(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// K=4 must beat K=1 (Megaflow-equivalent) on misses.
	var k1, k4 uint64
	if _, err := fmtSscan(tab.Rows[0][1], &k1); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(tab.Rows[3][1], &k4); err != nil {
		t.Fatal(err)
	}
	if k4 > k1 {
		t.Errorf("misses did not fall with K: %v", tab.Rows)
	}
}

func TestFig4Monotone(t *testing.T) {
	tab := Fig4(Params{Seed: 1, NumFlows: 8000})
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestTable1MatchesSpecs(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	out := tab.Render()
	for _, name := range []string{"OFD", "PSC", "OLS", "ANT", "OTL", "30", "23"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table 1 missing %q:\n%s", name, out)
		}
	}
}

func TestFig16SchemeOrdering(t *testing.T) {
	p := quick()
	tab, err := Fig16(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Row order: megaflow, RND, DP, 1-1, PROF. DP must beat RND on misses.
	rnd, dp := tab.Rows[1], tab.Rows[2]
	if rnd[0] != "RND" || dp[0] != "DP" {
		t.Fatalf("unexpected row order: %v", tab.Rows)
	}
	var rndMisses, dpMisses uint64
	if _, err := fmtSscan(rnd[2], &rndMisses); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(dp[2], &dpMisses); err != nil {
		t.Fatal(err)
	}
	if dpMisses > rndMisses {
		t.Errorf("DP misses %d exceed RND %d", dpMisses, rndMisses)
	}
}

func TestFig17Runs(t *testing.T) {
	tab, err := Fig17(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || tab.Headers[len(tab.Headers)-1] != "TSS probes/lookup" {
		t.Fatalf("headers %v, rows %v", tab.Headers, tab.Rows)
	}
	mf, gf := tab.Rows[0], tab.Rows[1]
	if !strings.HasPrefix(mf[0], "megaflow") || !strings.HasPrefix(gf[0], "gigaflow") {
		t.Fatalf("unexpected row order: %v", tab.Rows)
	}
	// The figure's headline: a CPU-resident Gigaflow serves packets
	// faster than a CPU-resident Megaflow.
	var mfMean, gfMean, probes float64
	for _, cell := range []struct {
		s string
		v *float64
	}{{mf[2], &mfMean}, {gf[2], &gfMean}, {mf[4], &probes}} {
		if _, err := fmtSscan(cell.s, cell.v); err != nil {
			t.Fatal(err)
		}
	}
	if gfMean >= mfMean {
		t.Errorf("gigaflow mean latency %v µs not below megaflow %v µs", gfMean, mfMean)
	}
	if probes <= 0 {
		t.Errorf("megaflow probes/lookup %v", probes)
	}
}

// TestReportLabelIsWhatRan: the report names the configuration the
// simulator ran, not the one it was asked for before defaults: the zero
// configuration is Gigaflow at the paper's shape.
func TestReportLabelIsWhatRan(t *testing.T) {
	p := Params{Seed: 1, NumFlows: 500, NumChains: 500, Pipelines: []*pipelines.Spec{pipelines.PSC}}
	var out strings.Builder
	if err := Report(&out, p, sim.Config{}, traffic.HighLocality, false); err != nil {
		t.Fatal(err)
	}
	if want := "cache       gigaflow(4x8192) offloaded=false\n"; !strings.Contains(out.String(), want) {
		t.Errorf("report lacks %q:\n%s", want, out.String())
	}
	if !strings.Contains(out.String(), " / 32768 ") {
		t.Errorf("report's capacity is not 32768:\n%s", out.String())
	}
}

func TestFig18MegaflowDipsMore(t *testing.T) {
	p := quick()
	p.NumFlows = 12000
	r, err := Fig18(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.GF.Points) < 10 || len(r.MF.Points) < 10 {
		t.Fatalf("series too short: %d/%d", len(r.GF.Points), len(r.MF.Points))
	}
	// After the arrival, Gigaflow's hit rate must stay at or above
	// Megaflow's (the coverage argument).
	gfPost, mfPost, n := 0.0, 0.0, 0
	for i := range r.GF.Points {
		if r.GF.Points[i].T > r.ArrivalSec && i < len(r.MF.Points) {
			gfPost += r.GF.Points[i].V
			mfPost += r.MF.Points[i].V
			n++
		}
	}
	if n == 0 {
		t.Fatal("no post-arrival samples")
	}
	if gfPost/float64(n) < mfPost/float64(n) {
		t.Errorf("post-arrival: gigaflow %.3f below megaflow %.3f", gfPost/float64(n), mfPost/float64(n))
	}
	if r.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestSec636(t *testing.T) {
	lat, reval, err := Sec636(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(lat.Rows) != 6 || len(reval.Rows) != 2 {
		t.Fatalf("rows = %d/%d", len(lat.Rows), len(reval.Rows))
	}
}

func TestFig19(t *testing.T) {
	p := quick()
	p.Pipelines = []*pipelines.Spec{pipelines.PSC}
	tab, err := Fig19(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 { // 2 caches × 4 core counts
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestTableSweep(t *testing.T) {
	p := quick()
	p.Pipelines = []*pipelines.Spec{pipelines.PSC}
	s, err := RunTableSweep(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 8 { // 1 pipeline × 2 localities × K=2..5
		t.Fatalf("rows = %d", len(s.Rows))
	}
	if len(s.Fig14().Rows) != 2 || len(s.Fig15().Rows) != 2 {
		t.Error("fig 14/15 render wrong")
	}
}

// fmtSscan parses a table-cell string into v.
func fmtSscan(s string, v any) (int, error) {
	return fmt.Sscan(s, v)
}
