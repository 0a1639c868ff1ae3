package ofp

import "testing"

// FuzzLoad checks that the program parser never panics and that accepted
// programs survive a dump/load round trip with the same shape.
func FuzzLoad(f *testing.F) {
	f.Add(demo)
	f.Add("pipeline p\ntable 0 t\nrule table=0 actions=drop\n")
	f.Add("table 0 t fields=ip_dst miss=goto(0)\n")
	f.Add("table 0 t miss=output(65535)\nrule table=0 priority=-5 actions=output(0)\n")
	f.Add("rule rule rule")
	f.Add("table 999999999999999999 t")
	f.Add("pipeline \ntable 0 t\n# only comments\n")
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 1<<16 {
			s = s[:1<<16] // keep pathological inputs cheap
		}
		p, err := LoadString(s)
		if err != nil {
			return
		}
		text := dump(p)
		re, err := LoadString(text)
		if err != nil {
			t.Fatalf("accepted program cannot be re-loaded: %v\n--- original\n%s\n--- dump\n%s", err, s, text)
		}
		if re.NumTables() != p.NumTables() || re.NumRules() != p.NumRules() {
			t.Fatalf("round trip changed shape: %d/%d tables, %d/%d rules",
				re.NumTables(), p.NumTables(), re.NumRules(), p.NumRules())
		}
	})
}
