// Command gfctl is the operator tool: it loads a textual pipeline program
// (ovs-ofctl-style; see internal/ofp), attaches a Gigaflow (or Megaflow)
// cache, and processes flow keys read from stdin — one per line — printing
// each packet's verdict and whether the hardware cache served it.
//
// Usage:
//
//	gfctl -rules prog.txt                      # interactive / piped keys
//	gfctl -rules prog.txt -dump                # print the normalized program
//	echo "ip_dst=10.0.0.1,tp_dst=80" | gfctl -rules prog.txt
//
// Besides flow keys, stdin accepts commands:
//
//	!stats        print vSwitch counters
//	!entries      print every cache entry
//	!revalidate   re-check the cache against the (possibly edited) rules
//	!coverage     print the cache's rule-space coverage
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"gigaflow"
)

func main() {
	var (
		rulesPath = flag.String("rules", "", "pipeline program file (required)")
		dump      = flag.Bool("dump", false, "print the normalized program and exit")
		o         options
	)
	flag.StringVar(&o.cache, "cache", "gigaflow", "cache backend (gigaflow|megaflow)")
	flag.IntVar(&o.tables, "tables", 4, "Gigaflow tables")
	flag.IntVar(&o.capacity, "cap", 32768, "total main-cache entries, either backend (split across Gigaflow's tables)")
	flag.Parse()
	if *rulesPath == "" {
		fmt.Fprintln(os.Stderr, "gfctl: -rules is required")
		os.Exit(2)
	}
	f, err := os.Open(*rulesPath)
	if err != nil {
		fail(err)
	}
	p, err := gigaflow.LoadPipeline(f)
	f.Close()
	if err != nil {
		fail(err)
	}
	if *dump {
		if err := gigaflow.DumpPipeline(os.Stdout, p); err != nil {
			fail(err)
		}
		return
	}

	vs, err := newSwitch(p, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gfctl: %v\n", err)
		os.Exit(2)
	}

	fmt.Fprintf(os.Stderr, "gfctl: %s loaded (%d tables, %d rules); reading keys from stdin\n",
		p.Name, p.NumTables(), p.NumRules())
	sc := bufio.NewScanner(os.Stdin)
	var clock int64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "!") {
			command(vs, line)
			continue
		}
		k, err := gigaflow.ParseKey(line)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			continue
		}
		clock += 1_000_000
		res, err := vs.Process(k, clock)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			continue
		}
		src := "slowpath"
		if res.CacheHit {
			src = "cache"
		}
		fmt.Printf("%-10s via %-8s final %s\n", res.Verdict, src, res.Final)
	}
	if err := sc.Err(); err != nil {
		fail(err)
	}
	command(vs, "!stats")
}

// options is the cache the command line asks for.
type options struct {
	cache            string
	tables, capacity int
}

// newSwitch builds the switch the flags ask for over p; an error is a
// usage error. capacity is the main cache's total on either backend: a
// Gigaflow cache splits it evenly across its tables.
func newSwitch(p *gigaflow.Pipeline, o options) (*gigaflow.VSwitch, error) {
	switch o.cache {
	case "gigaflow":
		if o.tables < 1 || o.capacity < o.tables {
			return nil, fmt.Errorf("-cap %d cannot give each of -tables %d an entry", o.capacity, o.tables)
		}
		return gigaflow.NewVSwitch(p, gigaflow.CacheConfig{NumTables: o.tables, TableCapacity: o.capacity / o.tables}), nil
	case "megaflow":
		if o.capacity < 1 {
			return nil, fmt.Errorf("-cap %d: must be positive", o.capacity)
		}
		return gigaflow.NewVSwitch(p, gigaflow.CacheConfig{}, gigaflow.WithMegaflowBackend(o.capacity)), nil
	}
	return nil, fmt.Errorf("unknown cache %q", o.cache)
}

func command(vs *gigaflow.VSwitch, line string) {
	switch line {
	case "!stats":
		st := vs.Stats()
		fmt.Printf("packets=%d hits=%d misses=%d installs=%d hit-rate=%.1f%% entries=%d\n",
			st.Packets, st.CacheHits, st.CacheMisses, st.Installs,
			100*st.HitRate(), vs.CacheEntries())
	case "!coverage":
		fmt.Printf("coverage=%d megaflow-equivalent rules over %d entries\n", vs.Coverage(), vs.CacheEntries())
	case "!entries":
		c := vs.Cache()
		if c == nil {
			fmt.Println("megaflow backend: entry dump not supported")
			return
		}
		for i := 0; i < c.NumTables(); i++ {
			for _, e := range c.Entries(i) {
				fmt.Printf("GF%d %s\n", i+1, e)
			}
		}
	case "!revalidate":
		ev, work := vs.Revalidate()
		fmt.Printf("revalidated: evicted=%d replayed-lookups=%d\n", ev, work)
	default:
		fmt.Printf("unknown command %q (try !stats, !entries, !coverage, !revalidate)\n", line)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "gfctl: %v\n", err)
	os.Exit(1)
}
